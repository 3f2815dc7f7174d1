package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"d2cq/internal/cq"
)

// TestBoundMatchesNaive cross-checks every evaluation mode of the bound API
// against the naive backtracking reference on random instances.
func TestBoundMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ctx := context.Background()
	eng := NewEngine()
	for trial := 0; trial < 30; trial++ {
		query, db := randomInstance(r)
		prep, err := eng.Prepare(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		cdb, err := eng.CompileDB(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := prep.Bind(ctx, cdb)
		if err != nil {
			t.Fatal(err)
		}
		wantOK, err := NaiveBCQ(query, db)
		if err != nil {
			t.Fatal(err)
		}
		gotOK, err := bound.Bool(ctx)
		if err != nil || gotOK != wantOK {
			t.Fatalf("trial %d: bound Bool=%v want %v err=%v\nq=%s", trial, gotOK, wantOK, err, query)
		}
		wantN, err := NaiveCount(query, db)
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := bound.Count(ctx)
		if err != nil || gotN != wantN {
			t.Fatalf("trial %d: bound Count=%d want %d err=%v\nq=%s", trial, gotN, wantN, err, query)
		}
		wantRel, wantDict, err := NaiveEnumerate(query, db)
		if err != nil {
			t.Fatal(err)
		}
		gotRel, gotDict, err := bound.EnumerateAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualRelations(gotRel, gotDict, wantRel, wantDict) {
			t.Fatalf("trial %d: bound enumeration differs (%d vs %d)\nq=%s",
				trial, gotRel.Len(), wantRel.Len(), query)
		}
	}
}

// TestBoundConcurrent hammers several BoundQueries sharing one CompiledDB
// from many goroutines; run with -race. The first enumerations also race on
// the lazily built reduction state.
func TestBoundConcurrent(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	cdbSrc := cq.Database{}
	queries := make([]*BoundQuery, 0, 2)
	q1, db := cycleQuery(5, 3)
	for rel, tuples := range db {
		for _, tuple := range tuples {
			cdbSrc.Add(rel, tuple...)
		}
	}
	q2, _ := cycleQuery(5, 3) // same shape: exercises the decomp cache too
	cdb, err := eng.CompileDB(ctx, cdbSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []cq.Query{q1, q2} {
		prep, err := eng.Prepare(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := prep.Bind(ctx, cdb)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, bound)
	}
	want, err := queries[0].Count(ctx)
	if err != nil || want == 0 {
		t.Fatalf("fixture should have solutions (n=%d err=%v)", want, err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 10; i++ {
				b := queries[r.Intn(len(queries))]
				switch r.Intn(4) {
				case 0:
					if ok, err := b.Bool(ctx); err != nil || !ok {
						errs <- fmt.Errorf("Bool: ok=%v err=%v", ok, err)
						return
					}
				case 1:
					if n, err := b.Count(ctx); err != nil || n != want {
						errs <- fmt.Errorf("Count: n=%d want=%d err=%v", n, want, err)
						return
					}
				case 2:
					var n int64
					if err := b.Enumerate(ctx, func(Solution) bool { n++; return true }); err != nil || n != want {
						errs <- fmt.Errorf("Enumerate: n=%d want=%d err=%v", n, want, err)
						return
					}
				default:
					if rel, _, err := b.EnumerateAll(ctx); err != nil || int64(rel.Len()) != want {
						errs <- fmt.Errorf("EnumerateAll: err=%v want %d rows", err, want)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := eng.Stats(); st.DBCompiles != 1 || st.Binds != 2 {
		t.Errorf("stats = %s, want 1 db-compile and 2 binds", st)
	}
}

// TestBoundNaiveAndGround covers Bind under a naive-fallback plan and a
// ground (edgeless) query.
func TestBoundNaiveAndGround(t *testing.T) {
	ctx := context.Background()
	q, db := cycleQuery(4, 2)
	eng := NewEngine(WithMaxWidth(1), WithNaiveFallback())
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !prep.Plan().Naive() {
		t.Fatal("fixture should fall back to a naive plan")
	}
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	wantN, err := NaiveCount(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := bound.Count(ctx); err != nil || n != wantN {
		t.Fatalf("naive bound Count=%d want %d err=%v", n, wantN, err)
	}
	var streamed int64
	if err := bound.Enumerate(ctx, func(Solution) bool { streamed++; return true }); err != nil || streamed != wantN {
		t.Fatalf("naive bound Enumerate=%d want %d err=%v", streamed, wantN, err)
	}

	// Ground query: all atoms constant.
	gq, err := cq.ParseQuery("R('a','b')")
	if err != nil {
		t.Fatal(err)
	}
	gdb := cq.Database{}
	gdb.Add("R", "a", "b")
	gPrep, err := NewEngine().Prepare(ctx, gq)
	if err != nil {
		t.Fatal(err)
	}
	gCdb, err := NewEngine().CompileDB(ctx, gdb)
	if err != nil {
		t.Fatal(err)
	}
	gBound, err := gPrep.Bind(ctx, gCdb)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := gBound.Bool(ctx); err != nil || !ok {
		t.Fatalf("ground bound Bool=%v err=%v", ok, err)
	}
	if n, err := gBound.Count(ctx); err != nil || n != 1 {
		t.Fatalf("ground bound Count=%d err=%v", n, err)
	}
}

// TestBoundCancellation cancels mid-enumeration and checks that the bound
// state is not poisoned: the next call with a live context succeeds.
func TestBoundCancellation(t *testing.T) {
	q, db := cycleQuery(6, 3)
	eng := NewEngine()
	prep, err := eng.Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	cdb, err := eng.CompileDB(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := prep.Bind(context.Background(), cdb)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-cancelled context: the lazy reduction must fail but not stick.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := bound.Enumerate(done, func(Solution) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Enumerate on cancelled ctx: %v", err)
	}
	if _, err := bound.Bool(done); !errors.Is(err, context.Canceled) {
		t.Errorf("Bool on cancelled ctx: %v", err)
	}
	ctx, cancelMid := context.WithCancel(context.Background())
	var n int
	err = bound.Enumerate(ctx, func(Solution) bool {
		n++
		if n == 100 {
			cancelMid()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel: err=%v after %d", err, n)
	}
	total, err := bound.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var m int64
	if err := bound.Enumerate(context.Background(), func(Solution) bool { m++; return true }); err != nil || m != total {
		t.Fatalf("post-cancel Enumerate=%d want %d err=%v", m, total, err)
	}
	// Bind itself honours cancelled contexts.
	if _, err := prep.Bind(done, cdb); !errors.Is(err, context.Canceled) {
		t.Errorf("Bind on cancelled ctx: %v", err)
	}
}

// TestBoundConstantsAndRepeatedVars exercises the bind-time atom paths the
// random instances miss: constant selection (one scan of the compiled table),
// repeated variables, and constants unknown to the database.
func TestBoundConstantsAndRepeatedVars(t *testing.T) {
	ctx := context.Background()
	db := cq.Database{}
	db.Add("R", "a", "b")
	db.Add("R", "a", "a")
	db.Add("R", "c", "a")
	db.Add("S", "a", "x")
	db.Add("S", "b", "y")
	eng := NewEngine()
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query string
		want  int64
	}{
		{"R('a',y), S(y,z)", 2},   // constant selection
		{"R(x,x), S(x,z)", 1},     // repeated variable: only (a,a)
		{"R('zzz',y), S(y,z)", 0}, // constant the dictionary never saw
		{"R('a','b'), S(x,z)", 2}, // two constants, both checked per row
		{"R('c','b'), S(x,z)", 0}, // two constants, no matching tuple
		{"R('a',x), S(x,'y')", 1}, // constants in two atoms: only (a,b)·(b,y)
	} {
		q, err := cq.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := eng.Prepare(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := prep.Bind(ctx, cdb)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bound.Count(ctx)
		if err != nil || got != tc.want {
			t.Errorf("%s: bound Count=%d want %d err=%v", tc.query, got, tc.want, err)
		}
		wantN, err := NaiveCount(q, db)
		if err != nil || got != wantN {
			t.Errorf("%s: naive ground truth %d, bound %d (err=%v)", tc.query, wantN, got, err)
		}
	}
	// Arity mismatch must surface as a Bind error.
	bad, err := cq.ParseQuery("R(x,y,z)")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := NewEngine(WithNaiveFallback()).Prepare(ctx, bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Bind(ctx, cdb); err == nil {
		t.Error("arity mismatch must fail Bind")
	}
}
