package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/graph"
	"d2cq/internal/hypergraph"
)

// cycleQuery returns the n-cycle query E0(x0,x1), ..., E{n-1}(x{n-1},x0)
// with a database whose relations form a clique over dom constants (many
// solutions, cyclic hypergraph, ghw 2).
func cycleQuery(n, dom int) (cq.Query, cq.Database) {
	var q cq.Query
	db := cq.Database{}
	for i := 0; i < n; i++ {
		rel := fmt.Sprintf("E%d", i)
		q.Atoms = append(q.Atoms, cq.Atom{Rel: rel, Args: []cq.Term{
			cq.V(fmt.Sprintf("x%d", i)), cq.V(fmt.Sprintf("x%d", (i+1)%n)),
		}})
		for a := 0; a < dom; a++ {
			for b := 0; b < dom; b++ {
				db.Add(rel, fmt.Sprintf("c%d", a), fmt.Sprintf("c%d", b))
			}
		}
	}
	return q, db
}

func TestPreparedDecompComputedOnce(t *testing.T) {
	eng := NewEngine()
	q, db := cycleQuery(4, 2)
	prep, err := eng.Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if ok, err := prep.Bool(context.Background(), db); err != nil || !ok {
			t.Fatalf("eval %d: ok=%v err=%v", i, ok, err)
		}
		if _, err := prep.Count(context.Background(), db); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.DecompsComputed != 1 {
		t.Errorf("decompositions computed = %d after repeated evaluation, want exactly 1", st.DecompsComputed)
	}
	// Preparing the same query shape again must hit the cache, not recompute.
	if _, err := eng.Prepare(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.DecompsComputed != 1 {
		t.Errorf("decompositions computed = %d after re-prepare, want 1 (cache hit)", st.DecompsComputed)
	}
	if st.Cache.Hits == 0 {
		t.Error("expected at least one cache hit")
	}
	if st.Prepares != 2 {
		t.Errorf("prepares = %d, want 2", st.Prepares)
	}
}

func TestPreparedConcurrentUse(t *testing.T) {
	eng := NewEngine()
	q, db := cycleQuery(5, 2)
	prep, err := eng.Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	wantCount, err := prep.Count(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if wantCount == 0 {
		t.Fatal("fixture should have solutions")
	}
	// Hammer one PreparedQuery from many goroutines over several databases;
	// run with -race to catch shared-state mutation.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 10; i++ {
				switch r.Intn(3) {
				case 0:
					ok, err := prep.Bool(context.Background(), db)
					if err != nil || !ok {
						errs <- fmt.Errorf("Bool: ok=%v err=%v", ok, err)
						return
					}
				case 1:
					n, err := prep.Count(context.Background(), db)
					if err != nil || n != wantCount {
						errs <- fmt.Errorf("Count: n=%d want=%d err=%v", n, wantCount, err)
						return
					}
				default:
					var n int64
					err := prep.Enumerate(context.Background(), db, func(Solution) bool {
						n++
						return true
					})
					if err != nil || n != wantCount {
						errs <- fmt.Errorf("Enumerate: n=%d want=%d err=%v", n, wantCount, err)
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
	if st := eng.Stats(); st.DecompsComputed != 1 {
		t.Errorf("decompositions computed = %d under concurrency, want 1", st.DecompsComputed)
	}
}

func TestPreparedContextCancellation(t *testing.T) {
	eng := NewEngine()
	q, db := cycleQuery(6, 3) // thousands of solutions
	prep, err := eng.Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var n int
	err = prep.Enumerate(ctx, db, func(Solution) bool {
		n++
		if n == 100 {
			cancel() // cancel mid-enumeration; the stream must stop with ctx.Err()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Enumerate after cancel: err=%v (yielded %d)", err, n)
	}
	total, err := prep.Count(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) >= total {
		t.Fatalf("cancellation yielded all %d solutions", total)
	}
	// Pre-cancelled contexts fail fast everywhere.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := prep.Bool(done, db); !errors.Is(err, context.Canceled) {
		t.Errorf("Bool on cancelled ctx: %v", err)
	}
	if _, err := prep.Count(done, db); !errors.Is(err, context.Canceled) {
		t.Errorf("Count on cancelled ctx: %v", err)
	}
	if _, err := eng.Prepare(done, q); !errors.Is(err, context.Canceled) {
		t.Errorf("Prepare on cancelled ctx: %v", err)
	}
}

func TestPreparedEnumerateEarlyStop(t *testing.T) {
	q, db := cycleQuery(4, 3)
	prep, err := NewEngine().Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	err = prep.Enumerate(context.Background(), db, func(Solution) bool {
		n++
		return n < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("early stop yielded %d, want 5", n)
	}
}

func TestPreparedEnumerateMatchesNaiveAndCount(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	eng := NewEngine()
	for trial := 0; trial < 30; trial++ {
		query, db := randomInstance(r)
		prep, err := eng.Prepare(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		rel, dict, err := prep.EnumerateAll(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		naiveRel, naiveDict, err := NaiveEnumerate(query, db)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualRelations(rel, dict, naiveRel, naiveDict) {
			t.Fatalf("trial %d: streamed enumeration differs (%d vs %d)\nq=%s",
				trial, rel.Len(), naiveRel.Len(), query)
		}
		n, err := prep.Count(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(rel.Len()) {
			t.Fatalf("trial %d: Count=%d but enumeration found %d", trial, n, rel.Len())
		}
	}
}

func TestPreparedSolutionAccessors(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "1", "2")
	db.Add("S", "2", "3")
	query, err := cq.ParseQuery("R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := NewEngine().Prepare(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	err = prep.Enumerate(context.Background(), db, func(s Solution) bool {
		if s.Get("y") != "2" {
			t.Errorf("Get(y) = %q", s.Get("y"))
		}
		got = s.Strings()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "2", "3"} // x, y, z sorted
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("solution = %v, want %v", got, want)
	}
}

func TestWithMaxWidthAndNaiveFallback(t *testing.T) {
	q, db := cycleQuery(4, 2) // cyclic: decomposition width 2
	strict := NewEngine(WithMaxWidth(1))
	if _, err := strict.Prepare(context.Background(), q); !errors.Is(err, ErrWidthExceeded) {
		t.Fatalf("want ErrWidthExceeded, got %v", err)
	}
	relaxed := NewEngine(WithMaxWidth(1), WithNaiveFallback())
	prep, err := relaxed.Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !prep.Plan().Naive() {
		t.Fatal("fallback plan should be naive")
	}
	ok, err := prep.Bool(context.Background(), db)
	if err != nil || !ok {
		t.Fatalf("naive fallback Bool: ok=%v err=%v", ok, err)
	}
	wantN, err := NaiveCount(q, db)
	if err != nil {
		t.Fatal(err)
	}
	n, err := prep.Count(context.Background(), db)
	if err != nil || n != wantN {
		t.Fatalf("naive fallback Count = %d, want %d (err=%v)", n, wantN, err)
	}
	var streamed int64
	if err := prep.Enumerate(context.Background(), db, func(Solution) bool { streamed++; return true }); err != nil {
		t.Fatal(err)
	}
	if streamed != wantN {
		t.Fatalf("naive fallback Enumerate streamed %d, want %d", streamed, wantN)
	}
}

func TestPreparedExplain(t *testing.T) {
	q, db := cycleQuery(4, 2)
	prep, err := NewEngine().Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	plan := prep.Explain()
	if plan == "" || prep.Plan().Width() < 2 {
		t.Fatalf("explain/width broken:\n%s", plan)
	}
	withDB, err := prep.ExplainDB(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(withDB) <= len(plan) {
		t.Error("ExplainDB should add materialised sizes")
	}
}

func TestPrepareSingleflight(t *testing.T) {
	eng := NewEngine()
	q, _ := cycleQuery(5, 2)
	// Many goroutines race to prepare the same uncached shape: the
	// decomposition search must run exactly once (singleflight), not once
	// per goroutine.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Prepare(context.Background(), q); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.DecompsComputed != 1 {
		t.Errorf("decompositions computed = %d under concurrent prepare, want 1", st.DecompsComputed)
	}
}

func TestNaivePlanHonoursCancelledContext(t *testing.T) {
	q, db := cycleQuery(4, 2)
	prep, err := NewEngine(WithMaxWidth(1), WithNaiveFallback()).Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !prep.Plan().Naive() {
		t.Fatal("fixture should fall back to a naive plan")
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prep.Bool(done, db); !errors.Is(err, context.Canceled) {
		t.Errorf("naive Bool on cancelled ctx: %v", err)
	}
	if _, err := prep.Count(done, db); !errors.Is(err, context.Canceled) {
		t.Errorf("naive Count on cancelled ctx: %v", err)
	}
	if err := prep.Enumerate(done, db, func(Solution) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Errorf("naive Enumerate on cancelled ctx: %v", err)
	}
}

// TestPreparedDatabaseMethodsErrorParity pins what the database-taking
// methods of a PreparedQuery answer at the edges of their input: an arity
// mismatch (or mixed arities) in a relation the query reads is an error, a
// read relation the database lacks and a query constant absent from it give
// no answers, and a malformed relation the query never reads is ignored —
// on a decomposed plan, a naive-fallback plan and a ground query alike, for
// Bool, Count, EnumerateAll and ExplainDB.
func TestPreparedDatabaseMethodsErrorParity(t *testing.T) {
	ctx := context.Background()
	db := func(rels map[string][][]string) cq.Database {
		out := cq.Database{}
		for rel, tuples := range rels {
			for _, tuple := range tuples {
				out.Add(rel, tuple...)
			}
		}
		return out
	}
	path := db(map[string][][]string{"R": {{"1", "2"}}, "S": {{"2", "3"}}})
	cases := []struct {
		name    string
		query   string
		naive   bool
		db      cq.Database
		wantErr bool
		wantN   int64
	}{
		{"arity-mismatch", "R(x,y), S(y,z)", false, db(map[string][][]string{"R": {{"1", "2", "3"}}, "S": {{"2", "3"}}}), true, 0},
		{"mixed-arity-read", "R(x,y), S(y,z)", false, db(map[string][][]string{"R": {{"1", "2"}, {"1", "2", "3"}}, "S": {{"2", "3"}}}), true, 0},
		{"missing-relation", "R(x,y), S(y,z)", false, db(map[string][][]string{"R": {{"1", "2"}}}), false, 0},
		{"absent-constant", "R(x,y), S(y,'9')", false, path, false, 0},
		{"present-constant", "R(x,'2'), S('2',z)", false, path, false, 1},
		{"mixed-arity-unread", "R(x,y), S(y,z)", false, db(map[string][][]string{"R": {{"1", "2"}}, "S": {{"2", "3"}}, "U": {{"a"}, {"a", "b"}}}), false, 1},
		{"naive", "R(x,y), S(y,z), T(z,x)", true, db(map[string][][]string{"R": {{"1", "2"}}, "S": {{"2", "3"}}, "T": {{"3", "1"}}, "U": {{"a"}, {"a", "b"}}}), false, 1},
		{"naive-arity-mismatch", "R(x,y), S(y,z), T(z,x)", true, db(map[string][][]string{"R": {{"1", "2"}}, "S": {{"2", "3"}}, "T": {{"3"}}}), true, 0},
		{"naive-missing-relation", "R(x,y), S(y,z), T(z,x)", true, path, false, 0},
		{"ground", "R('1','2'), S('2','3')", false, db(map[string][][]string{"R": {{"1", "2"}}, "S": {{"2", "3"}}, "U": {{"a"}, {"a", "b"}}}), false, 1},
		{"ground-absent-constant", "R('1','9')", false, path, false, 0},
		{"ground-missing-relation", "R('1','2'), T('3')", false, path, false, 0},
		{"ground-arity-mismatch", "R('1')", false, path, true, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := cq.ParseQuery(c.query)
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine()
			if c.naive {
				eng = NewEngine(WithMaxWidth(1), WithNaiveFallback())
			}
			prep, err := eng.Prepare(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if prep.Plan().Naive() != c.naive {
				t.Fatalf("naive plan = %v, want %v", prep.Plan().Naive(), c.naive)
			}
			ok, err := prep.Bool(ctx, c.db)
			if (err != nil) != c.wantErr || ok != (c.wantN > 0) {
				t.Errorf("Bool = %v, %v; want %v (error %v)", ok, err, c.wantN > 0, c.wantErr)
			}
			n, err := prep.Count(ctx, c.db)
			if (err != nil) != c.wantErr || n != c.wantN {
				t.Errorf("Count = %d, %v; want %d (error %v)", n, err, c.wantN, c.wantErr)
			}
			rel, _, err := prep.EnumerateAll(ctx, c.db)
			if (err != nil) != c.wantErr || (err == nil && int64(rel.Len()) != c.wantN) {
				t.Errorf("EnumerateAll = %v, %v; want %d rows (error %v)", rel, err, c.wantN, c.wantErr)
			}
			out, err := prep.ExplainDB(ctx, c.db)
			if (err != nil) != c.wantErr || (err == nil && out == "") {
				t.Errorf("ExplainDB = %q, %v; want a plan (error %v)", out, err, c.wantErr)
			}
		})
	}
}

// raceSlack scales a wall-clock limit for the race detector, under which
// the width searches run about ten times slower.
func raceSlack(d time.Duration) time.Duration {
	if raceEnabled {
		return 10 * d
	}
	return d
}

// gridDualQuery is the dual of the n×n grid as a query: one atom r<v> per
// grid vertex v over the variables of v's grid edges. It is degree-2, with
// n² atoms, and its hypertree width grows with n.
func gridDualQuery(n int) cq.Query {
	h := hypergraph.FromGraph(graph.Grid(n, n)).Dual()
	var q cq.Query
	for e := 0; e < h.NE(); e++ {
		a := cq.Atom{Rel: fmt.Sprintf("r%d", e)}
		for _, v := range h.EdgeVertices(e) {
			a.Args = append(a.Args, cq.V(fmt.Sprintf("x%d", v)))
		}
		q.Atoms = append(q.Atoms, a)
	}
	return q
}

// TestMaxWidthCapsSearch: WithMaxWidth(2) refuses the 5×5 grid's dual
// (width 5) after the search at width 2, not after finding its width, and
// caches the refusal: a second Prepare of the shape searches nothing and
// returns at once, the same error without the fallback and the naive plan
// with it.
func TestMaxWidthCapsSearch(t *testing.T) {
	q := gridDualQuery(5)
	for _, fallback := range []bool{false, true} {
		opts := []Option{WithMaxWidth(2)}
		if fallback {
			opts = append(opts, WithNaiveFallback())
		}
		eng := NewEngine(opts...)
		for call := 1; call <= 2; call++ {
			limit := 100 * time.Millisecond
			if call == 2 {
				limit = 10 * time.Millisecond
			}
			start := time.Now()
			prep, err := eng.Prepare(context.Background(), q)
			if el := time.Since(start); el > raceSlack(limit) {
				t.Errorf("fallback %v, call %d: refusal took %v", fallback, call, el)
			}
			switch {
			case fallback && (err != nil || !prep.Plan().Naive()):
				t.Fatalf("fallback, call %d: err=%v, naive=%v", call, err, err == nil && prep.Plan().Naive())
			case !fallback && !errors.Is(err, ErrWidthExceeded):
				t.Fatalf("call %d: want ErrWidthExceeded, got %v", call, err)
			}
		}
		if st := eng.Stats(); st.DecompsComputed != 1 || st.Cache.Len != 1 {
			t.Errorf("fallback %v: %d searches and %d cache entries for two Prepares of one refused shape, want 1 and 1", fallback, st.DecompsComputed, st.Cache.Len)
		}
	}
}

// TestPrepareHonoursDeadline: the search for the 6×6 grid's dual runs for
// minutes; Prepare stops it at its context's deadline, with or without the
// naive fallback, and caches nothing.
func TestPrepareHonoursDeadline(t *testing.T) {
	q := gridDualQuery(6)
	for _, eng := range []*Engine{NewEngine(), NewEngine(WithNaiveFallback())} {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		start := time.Now()
		_, err := eng.Prepare(ctx, q)
		cancel()
		if el := time.Since(start); el > raceSlack(time.Second) {
			t.Errorf("Prepare with a 200ms deadline returned after %v", el)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("want context.DeadlineExceeded, got %v", err)
		}
		if n := eng.Stats().Cache.Len; n != 0 {
			t.Errorf("cache holds %d entries after a cancelled search", n)
		}
	}
}

// TestPrepareWaiterOwnContext: a Prepare waiting on another's search of the
// same shape stops when its own context ends, and one whose context outlives
// the owner's searches on under its own, so every caller gets its own
// context's error.
func TestPrepareWaiterOwnContext(t *testing.T) {
	q := gridDualQuery(6)
	eng := NewEngine()
	inflight := func() int {
		eng.flightMu.Lock()
		defer eng.flightMu.Unlock()
		return len(eng.inflight)
	}
	owner, cancelOwner := context.WithCancel(context.Background())
	defer cancelOwner()
	ownerErr := make(chan error, 1)
	go func() { _, err := eng.Prepare(owner, q); ownerErr <- err }()
	for inflight() == 0 {
		select {
		case err := <-ownerErr:
			t.Fatalf("owner returned before its search began: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	heir, cancelHeir := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancelHeir()
	heirErr := make(chan error, 1)
	go func() { _, err := eng.Prepare(heir, q); heirErr <- err }()

	waiter, cancelWaiter := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelWaiter()
	start := time.Now()
	if _, err := eng.Prepare(waiter, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter: want context.DeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el > raceSlack(time.Second) {
		t.Errorf("waiter with a 50ms deadline returned after %v", el)
	}
	cancelOwner()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Errorf("owner: want context.Canceled, got %v", err)
	}
	if err := <-heirErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("heir: want its own context.DeadlineExceeded, got %v", err)
	}
	if n := inflight(); n != 0 {
		t.Errorf("%d flights left", n)
	}
	if n := eng.Stats().Cache.Len; n != 0 {
		t.Errorf("cache holds %d entries after cancelled searches", n)
	}
}
