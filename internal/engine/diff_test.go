package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// The DiffFrom differential harness: across the shared query shapes and a
// random insert/delete stream, the incremental diff (enumerated from the
// per-node changes of the cached enumeration states) must be byte-identical
// — columns, rows and order — to the materialise-both oracle, both against
// the immediately preceding snapshot and against a snapshot several Updates
// back; and so must the diff of a fresh Bind of each new snapshot, from the
// preceding snapshot and from a fresh Bind of it.

func requireSameRelation(t *testing.T, what string, got, want *Relation) {
	t.Helper()
	if !slices.Equal(got.Cols, want.Cols) {
		t.Fatalf("%s: columns %v, oracle %v", what, got.Cols, want.Cols)
	}
	if !slices.Equal(got.Data, want.Data) {
		t.Fatalf("%s: %d rows %v, oracle %d rows %v", what, got.Len(), got.Data, want.Len(), want.Data)
	}
}

func runDiffScript(t *testing.T, sh diffShape, seed int64, nSteps int) {
	t.Helper()
	ctx := context.Background()
	q, err := cq.ParseQuery(sh.query)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(sh.opts...)
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	relNames := make([]string, 0, len(sh.rels))
	for r := range sh.rels {
		relNames = append(relNames, r)
	}
	slices.Sort(relNames)
	rng := rand.New(rand.NewSource(seed))
	initial := cq.Database{}
	for _, pre := range genStep(rng, sh, relNames) {
		if pre.insert {
			initial.Add(pre.rel, pre.tuple...)
		}
	}
	cdb, err := eng.CompileDB(ctx, initial)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	window := []*BoundQuery{cur} // recent snapshots, oldest first
	// A fresh Bind of the current snapshot, never enumerated: the added side
	// of a diff from it walks Bind's layout.
	fresh, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nSteps; i++ {
		next, err := cur.Update(ctx, stepDelta(genStep(rng, sh, relNames)))
		if err != nil {
			t.Fatalf("%s seed %d step %d: Update: %v", sh.name, seed, i, err)
		}
		nextFresh, err := prep.Bind(ctx, next.Database())
		if err != nil {
			t.Fatalf("%s seed %d step %d: Bind: %v", sh.name, seed, i, err)
		}
		for _, c := range []struct {
			what      string
			cur, prev *BoundQuery
		}{
			{"from the predecessor", next, cur},
			{"from a snapshot back", next, window[0]},
			{"fresh Bind from the predecessor", nextFresh, cur},
			{"fresh Bind from a fresh Bind", nextFresh, fresh},
		} {
			what := fmt.Sprintf("%s seed %d step %d, %s", sh.name, seed, i, c.what)
			ga, gr, err := c.cur.DiffFrom(ctx, c.prev)
			if err != nil {
				t.Fatalf("%s: DiffFrom: %v", what, err)
			}
			wa, wr, err := c.cur.diffOracle(ctx, c.prev)
			if err != nil {
				t.Fatalf("%s: oracle: %v", what, err)
			}
			requireSameRelation(t, what+": added", ga, wa)
			requireSameRelation(t, what+": removed", gr, wr)
		}
		window = append(window, next)
		if len(window) > 4 {
			window = window[1:]
		}
		cur, fresh = next, nextFresh
	}
	// Coverage check, full runs only: short mode's 40 steps can leave a
	// shape's every diff on the absorbed empty fast path (const-repeat does),
	// which never reaches the incremental enumerator.
	if !testing.Short() && sh.name != "naive-triangle" && eng.Stats().DiffsFast == 0 {
		t.Fatalf("%s: no DiffFrom took the incremental path", sh.name)
	}
}

// TestDiffFromDifferential holds the incremental diff path to byte-equality
// against the oracle across every query shape and a random update stream.
// Reuse -incseed to reproduce a report.
func TestDiffFromDifferential(t *testing.T) {
	nSteps := 120
	if testing.Short() {
		nSteps = 40
	}
	for _, sh := range diffShapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{*incSeed, *incSeed + 1} {
				runDiffScript(t, sh, seed, nSteps)
			}
		})
	}
}

// TestDiffFromValidation pins the error contract: nil snapshot, a different
// prepared query, and an unrelated database lineage are all rejected.
func TestDiffFromValidation(t *testing.T) {
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
	db.Add("R", "1", "2")
	db.Add("S", "2", "3")
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.DiffFrom(ctx, nil); err == nil {
		t.Error("DiffFrom(nil) should fail")
	}
	prep2, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := prep2.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.DiffFrom(ctx, b2); err == nil {
		t.Error("DiffFrom across prepared queries should fail")
	}
	cdb2, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := prep.Bind(ctx, cdb2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.DiffFrom(ctx, b3); err == nil {
		t.Error("DiffFrom across unrelated compiles should fail")
	}
}

// diffBenchState builds the benchmark fixture: a three-atom path query whose
// fan-out produces a ≥100k-row result from a few hundred rows per node, and
// a one-tuple delta producing exactly one new solution.
func diffBenchState(tb testing.TB) (prev, next *BoundQuery, eng *Engine) {
	tb.Helper()
	ctx := context.Background()
	eng = NewEngine()
	q, err := cq.ParseQuery("R(a,b), S(b,c), T(c,d)")
	if err != nil {
		tb.Fatal(err)
	}
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		tb.Fatal(err)
	}
	const fan = 330 // 330 × 330 = 108 900 solutions
	db := cq.Database{}
	for i := 0; i < fan; i++ {
		db.Add("R", fmt.Sprintf("a%d", i), "m")
		db.Add("S", "m", fmt.Sprintf("c%d", i))
		db.Add("T", fmt.Sprintf("c%d", i), "d")
	}
	db.Add("R", "alone", "m2")
	db.Add("T", "cstar", "d")
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		tb.Fatal(err)
	}
	prev, err = prep.Bind(ctx, cdb)
	if err != nil {
		tb.Fatal(err)
	}
	// One tuple: links "alone" through m2 to cstar — exactly one new solution.
	next, err = prev.Update(ctx, storage.NewDelta().Add("S", "m2", "cstar"))
	if err != nil {
		tb.Fatal(err)
	}
	return prev, next, eng
}

// TestDiffFromOneTupleFanout pins the benchmark scenario's semantics: the
// one-tuple delta against the 100k-row result diffs to exactly one added
// solution, via the incremental path, matching the oracle byte-for-byte.
func TestDiffFromOneTupleFanout(t *testing.T) {
	if testing.Short() {
		t.Skip("fixture builds a 100k-row result")
	}
	ctx := context.Background()
	prev, next, eng := diffBenchState(t)
	n, err := next.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n < 100_000 {
		t.Fatalf("fixture result has %d rows, want ≥100000", n)
	}
	added, removed, err := next.DiffFrom(ctx, prev)
	if err != nil {
		t.Fatal(err)
	}
	if added.Len() != 1 || removed.Len() != 0 {
		t.Fatalf("diff = +%d/−%d rows, want exactly +1/−0", added.Len(), removed.Len())
	}
	if eng.Stats().DiffsFast != 1 {
		t.Fatalf("DiffsFast = %d, want 1", eng.Stats().DiffsFast)
	}
	wa, wr, err := next.diffOracle(ctx, prev)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, "added", added, wa)
	requireSameRelation(t, "removed", removed, wr)
}

// BenchmarkDiffFrom compares the incremental diff against the
// materialise-both oracle on a one-tuple change to a ≥100k-row result — the
// acceptance scenario of the O(change) flush path (incremental must come out
// ≥10× faster; in practice it is several orders of magnitude).
func BenchmarkDiffFrom(b *testing.B) {
	ctx := context.Background()
	prev, next, _ := diffBenchState(b)
	if _, _, err := next.DiffFrom(ctx, prev); err != nil { // warm the caches
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := next.DiffFrom(ctx, prev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := next.diffOracle(ctx, prev); err != nil {
				b.Fatal(err)
			}
		}
	})
}
