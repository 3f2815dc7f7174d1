package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// The parallel differential suite: every evaluation mode of a BoundQuery
// must give the same answers whatever WithParallelism is set to — over the
// initial bind and across a random stream of Update steps alike. The query
// shapes and the random delta generator are shared with the incremental
// harness in incremental_test.go.

// diffPars returns the parallelism levels the differential tests sweep:
// sequential, two workers, GOMAXPROCS, and an explicit 4 (deduplicated,
// sequential first so index 0 is the reference).
func diffPars() []int {
	pars := []int{1, 2, runtime.GOMAXPROCS(0), 4}
	slices.Sort(pars)
	return slices.Compact(pars)
}

// TestParallelDifferential binds every query shape once per parallelism
// level, drives all copies through the same random update stream, and
// requires Bool, Count and EnumerateAll (as multisets — EnumerateAll sorts)
// to agree with the sequential copy after every step.
func TestParallelDifferential(t *testing.T) {
	steps := 40
	if testing.Short() {
		steps = 12
	}
	pars := diffPars()
	for _, sh := range diffShapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			q, err := cq.ParseQuery(sh.query)
			if err != nil {
				t.Fatal(err)
			}
			relNames := make([]string, 0, len(sh.rels))
			for r := range sh.rels {
				relNames = append(relNames, r)
			}
			slices.Sort(relNames)
			for _, seed := range []int64{*incSeed, *incSeed + 1} {
				rng := rand.New(rand.NewSource(seed))
				initial := cq.Database{}
				for _, pre := range genStep(rng, sh, relNames) {
					if pre.insert {
						initial.Add(pre.rel, pre.tuple...)
					}
				}
				ctx := context.Background()
				bounds := make([]*BoundQuery, len(pars))
				for i, par := range pars {
					opts := append(append([]Option(nil), sh.opts...), WithParallelism(par))
					// Exercise both merge modes: odd sweep slots preserve
					// the sequential order, even ones merge in arrival order.
					if i%2 == 1 {
						opts = append(opts, WithDeterministicOrder())
					}
					eng := NewEngine(opts...)
					prep, err := eng.Prepare(ctx, q)
					if err != nil {
						t.Fatalf("par %d: Prepare: %v", par, err)
					}
					cdb, err := eng.CompileDB(ctx, initial)
					if err != nil {
						t.Fatalf("par %d: CompileDB: %v", par, err)
					}
					if bounds[i], err = prep.Bind(ctx, cdb); err != nil {
						t.Fatalf("par %d: Bind: %v", par, err)
					}
				}
				for s := 0; s < steps; s++ {
					delta := stepDelta(genStep(rng, sh, relNames))
					for i := range bounds {
						nb, err := bounds[i].Update(ctx, delta)
						if err != nil {
							t.Fatalf("seed %d step %d par %d: Update: %v", seed, s, pars[i], err)
						}
						bounds[i] = nb
					}
					for i := 1; i < len(bounds); i++ {
						if desc := compareBound(ctx, bounds[i], bounds[0]); desc != "" {
							t.Fatalf("seed %d step %d: parallelism %d diverged from 1: %s",
								seed, s, pars[i], desc)
						}
					}
				}
			}
		})
	}
}

// parallelFixture binds R(a,b), S(b,c), T(c,d) over a database whose answer
// set is large enough that parallel enumeration genuinely splits the root
// relation, returning the bound query.
func parallelFixture(t *testing.T, opts ...Option) *BoundQuery {
	t.Helper()
	ctx := context.Background()
	eng := NewEngine(opts...)
	q, err := cq.ParseQuery("R(a,b), S(b,c), T(c,d)")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	for i := 0; i < 40; i++ {
		db.Add("R", fmt.Sprint(i), fmt.Sprint(i%8))
		db.Add("S", fmt.Sprint(i%8), fmt.Sprint(i%5))
		db.Add("T", fmt.Sprint(i%5), fmt.Sprint(i))
	}
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// collectRows streams the bound query and returns every yielded row, copied.
func collectRows(t *testing.T, b *BoundQuery) [][]Value {
	t.Helper()
	var rows [][]Value
	err := b.Enumerate(context.Background(), func(s Solution) bool {
		rows = append(rows, append([]Value(nil), s.Values()...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestParallelDeterministicOrder: with WithDeterministicOrder, a parallel
// enumeration must yield rows in exactly the sequential order, not merely
// the same multiset.
func TestParallelDeterministicOrder(t *testing.T) {
	seqRows := collectRows(t, parallelFixture(t))
	detRows := collectRows(t, parallelFixture(t, WithParallelism(4), WithDeterministicOrder()))
	if len(seqRows) == 0 {
		t.Fatal("fixture enumerates no rows")
	}
	if len(detRows) != len(seqRows) {
		t.Fatalf("deterministic parallel yields %d rows, sequential %d", len(detRows), len(seqRows))
	}
	for i := range seqRows {
		if !slices.Equal(seqRows[i], detRows[i]) {
			t.Fatalf("row %d: deterministic parallel %v, sequential %v", i, detRows[i], seqRows[i])
		}
	}
	// Arrival-order merge must still produce the same multiset.
	arrRows := collectRows(t, parallelFixture(t, WithParallelism(4)))
	if len(arrRows) != len(seqRows) {
		t.Fatalf("arrival-order parallel yields %d rows, sequential %d", len(arrRows), len(seqRows))
	}
	key := func(rows [][]Value) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(key(arrRows), key(seqRows)) {
		t.Fatal("arrival-order parallel multiset differs from sequential")
	}
}

// awaitGoroutines waits for the goroutine count to drop back to the
// baseline (with a little slack for the runtime's own bookkeeping),
// retrying because worker teardown is asynchronous.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker pool leaked: %d goroutines, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelEnumerateEarlyStopDrains: returning false from yield stops a
// parallel enumeration (nil error) and the producer pool drains without
// leaking goroutines — in both merge modes.
func TestParallelEnumerateEarlyStopDrains(t *testing.T) {
	for _, det := range []bool{false, true} {
		opts := []Option{WithParallelism(4)}
		if det {
			opts = append(opts, WithDeterministicOrder())
		}
		b := parallelFixture(t, opts...)
		baseline := runtime.NumGoroutine()
		seen := 0
		err := b.Enumerate(context.Background(), func(Solution) bool {
			seen++
			return seen < 5
		})
		if err != nil {
			t.Fatalf("det=%v: early stop should return nil, got %v", det, err)
		}
		if seen != 5 {
			t.Fatalf("det=%v: yield called %d times after stopping at 5", det, seen)
		}
		awaitGoroutines(t, baseline)
	}
}

// TestParallelEnumerateCancelDrains: cancelling the context mid-stream makes
// a parallel enumeration return the context error and the worker pool drain
// without leaking goroutines.
func TestParallelEnumerateCancelDrains(t *testing.T) {
	for _, det := range []bool{false, true} {
		opts := []Option{WithParallelism(4)}
		if det {
			opts = append(opts, WithDeterministicOrder())
		}
		b := parallelFixture(t, opts...)
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := b.Enumerate(ctx, func(Solution) bool {
			seen++
			if seen == 5 {
				cancel()
			}
			return true
		})
		cancel()
		if err == nil {
			t.Fatalf("det=%v: cancelled enumeration should return the context error", det)
		}
		awaitGoroutines(t, baseline)
	}
}

// TestParallelEnumerateOldSnapshotDuringUpdates streams parallel
// enumerations from a frozen snapshot — and from whatever snapshot is
// latest — while a writer chains Updates. Run under -race: partition state
// lives in the immutable per-snapshot enumState, so old streams must keep
// producing their snapshot's answers untouched.
func TestParallelEnumerateOldSnapshotDuringUpdates(t *testing.T) {
	ctx := context.Background()
	orig := parallelFixture(t, WithParallelism(4))
	origRel, origDict, err := orig.EnumerateAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var latest struct {
		sync.Mutex
		b *BoundQuery
	}
	latest.b = orig
	var wg sync.WaitGroup
	// Writer: chain Updates (inserting fresh constants, deleting old rows)
	// while the readers stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := orig
		for i := 0; i < 60; i++ {
			d := storage.NewDelta()
			if i%2 == 0 {
				d.Add("R", fmt.Sprintf("w%d", i), fmt.Sprint(i%8))
			} else {
				d.Remove("T", fmt.Sprint(i%5), fmt.Sprint(i%40)).Add("S", fmt.Sprint(i%8), fmt.Sprint(i%5))
			}
			next, err := cur.Update(ctx, d)
			if err != nil {
				t.Error("Update:", err)
				return
			}
			cur = next
			latest.Lock()
			latest.b = cur
			latest.Unlock()
		}
	}()
	// Readers over the frozen snapshot: the stream must always reproduce the
	// original answer relation.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				rel, dict, err := orig.EnumerateAll(ctx)
				if err != nil {
					t.Error("orig EnumerateAll:", err)
					return
				}
				if !EqualRelations(rel, dict, origRel, origDict) {
					t.Error("frozen snapshot's enumeration changed under concurrent updates")
					return
				}
			}
		}()
	}
	// Readers over the latest snapshot: internal consistency only.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			latest.Lock()
			b := latest.b
			latest.Unlock()
			n, err := b.Count(ctx)
			if err != nil {
				t.Error("latest Count:", err)
				return
			}
			var streamed int64
			if err := b.Enumerate(ctx, func(Solution) bool { streamed++; return true }); err != nil {
				t.Error("latest Enumerate:", err)
				return
			}
			if streamed != n {
				t.Errorf("latest snapshot inconsistent: Count %d, Enumerate %d", n, streamed)
				return
			}
		}
	}()
	wg.Wait()
}

// TestSupportMapStaysBounded drives a long delete-heavy update stream whose
// every round retires a distinct tuple, and asserts the per-node support
// maps track the live tuples instead of every tuple ever derived: a tuple
// whose last derivation goes away leaves the map.
func TestSupportMapStaysBounded(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	q, err := cq.ParseQuery("R(a,b), S(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	for i := 0; i < 64; i++ {
		db.Add("R", fmt.Sprint(i%16), fmt.Sprint((i+1)%16))
		db.Add("S", fmt.Sprint((i+1)%16), fmt.Sprint((i+2)%16))
	}
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	mirror := db.Clone()
	rounds := 150
	if testing.Short() {
		rounds = 60
	}
	maxLen := 0
	for r := 0; r < rounds; r++ {
		// Insert a never-seen tuple, then delete it next step: every pair of
		// rounds leaves behind one would-be tombstone per support map.
		tuple := []string{fmt.Sprintf("x%d", r/2), fmt.Sprintf("y%d", r/2)}
		d := storage.NewDelta()
		op := diffOp{insert: r%2 == 0, rel: "R", tuple: tuple}
		if op.insert {
			d.Add(op.rel, op.tuple...)
		} else {
			d.Remove(op.rel, op.tuple...)
		}
		nb, err := b.Update(ctx, d)
		if err != nil {
			t.Fatalf("round %d: Update: %v", r, err)
		}
		b = nb
		applyMirror(mirror, diffStep{op})
		for _, ns := range b.maint.nodes {
			if ns.sup.Len() > maxLen {
				maxLen = ns.sup.Len()
			}
		}
	}
	// The live bag projection never exceeds |R|+1 tuples, well under the
	// ~rounds/2 distinct keys a map that kept dead tuples would accumulate.
	if bound := 64 + 1; maxLen > bound {
		t.Fatalf("support map grew to %d entries, want ≤ %d", maxLen, bound)
	}
	refCDB, err := eng.CompileDB(ctx, mirror)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prep.Bind(ctx, refCDB)
	if err != nil {
		t.Fatal(err)
	}
	if desc := compareBound(ctx, b, ref); desc != "" {
		t.Fatalf("after the delete-heavy stream: %s", desc)
	}
}

// TestSortParMatchesSequential: the parallel sort must reproduce the
// sequential SortForDisplay byte for byte.
func TestSortParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seq := NewRelation("a", "b", "c")
	for i := 0; i < 10000; i++ {
		seq.Add(Value(rng.Intn(50)), Value(rng.Intn(50)), Value(rng.Intn(50)))
	}
	par := seq.Clone()
	seq.SortForDisplay()
	par.sortPar(4)
	if !slices.Equal(seq.Data, par.Data) {
		t.Fatal("parallel sort differs from sequential sort")
	}
}
