package engine

import (
	"context"
	"runtime"
	"testing"
)

// TestFirstRebindAllocationsFlat: converting a bound query to maintained form
// allocates per map, not per row — every map is bulk-built — so the first
// Rebind of path3 at 20 000 rows per relation allocates within 10 % of the one
// at 5 000.
func TestFirstRebindAllocationsFlat(t *testing.T) {
	allocs := func(rows int) uint64 {
		eng, prep, cdb, planted := newMaintDB(t, maintPath3, rows, rows/2)
		best := ^uint64(0)
		for try := 0; try < 3; try++ {
			f := &maintFixture{shape: maintPath3, eng: eng, bound: bindPrimed(t, prep, cdb), planted: planted}
			ncdb := f.apply(t, try, 0, false)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f.maintain(t, ncdb)
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	small, large := allocs(5_000), allocs(20_000)
	t.Logf("first Rebind + Count + DiffFrom: %d allocations at 5 000 rows, %d at 20 000", small, large)
	if float64(large) > 1.1*float64(small) {
		t.Fatalf("the first Rebind allocates %d times at 20 000 rows, %d at 5 000: it allocates per row", large, small)
	}
}

// TestFirstRebindKeepsOldSnapshot: a bound query read before its first
// Rebind — the one that converts its state to maintained form — answers
// unchanged after it, and the converted successor answers unchanged after
// its own successor edits the bulk-built maps it shares.
func TestFirstRebindKeepsOldSnapshot(t *testing.T) {
	ctx := context.Background()
	for _, shape := range []maintShape{maintPath3, maintCycle4, maintCycle6, maintJigsaw} {
		t.Run(shape.name, func(t *testing.T) {
			eng, prep, cdb, planted := newMaintDB(t, shape, 300, 150)
			f := &maintFixture{shape: shape, eng: eng, bound: bindPrimed(t, prep, cdb), planted: planted}
			type answer struct {
				count int64
				rows  *Relation
				dict  *Dict
			}
			read := func(b *BoundQuery) answer {
				n, err := b.Count(ctx)
				if err != nil {
					t.Fatal(err)
				}
				rows, dict, err := b.EnumerateAll(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return answer{n, rows, dict}
			}
			same := func(what string, got, want answer) {
				t.Helper()
				if got.count != want.count || !EqualRelations(got.rows, got.dict, want.rows, want.dict) {
					t.Fatalf("%s: %d answers, want %d (or other rows)", what, got.count, want.count)
				}
			}
			old := f.bound
			before := read(old)
			f.maintain(t, f.apply(t, 0, 0, false)) // the first Rebind converts
			first := f.bound
			after := read(first)
			if after.count != before.count-1 {
				t.Fatalf("deleting a planted tuple: %d answers, want %d", after.count, before.count-1)
			}
			same("the bound query read before the first Rebind", read(old), before)
			f.maintain(t, f.apply(t, 0, 0, true)) // edits the converted maps
			f.maintain(t, f.apply(t, 1, 1, false))
			same("the first Rebind's result, after its successors", read(first), after)
			same("the bound query read before the first Rebind, at the end", read(old), before)
		})
	}
}

// TestMaintainedStateBytes accounts for the heap a registered query holds on
// each rebind fixture, as live heap after two collections: the compiled
// database (around CompileDB), then Bind with the priming Count and
// Enumerate, the first Rebind + Count + DiffFrom (the conversion to
// maintained form) and a second. The query state — everything after the
// compiled database, the shared pieces of the flat state the maintained one
// still points at included — is held, relative to the database, to a ceiling
// per fixture 10 % above what the form whose parent groupings share Bind's
// rows measured on a 2-CPU host, so a duplicated map or row copy shows.
func TestMaintainedStateBytes(t *testing.T) {
	ceiling := map[string]float64{
		"path3-5k": 8.43, "path3-20k": 7.54, "cycle4-500": 7.45,
		"cycle4-5k": 9.41, "cycle6-500": 16.68, "jigsaw2x3-200": 6.27,
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }
	for _, c := range rebindFixtures {
		h0 := heap()
		eng, prep, cdb, planted := newMaintDB(t, c.shape, c.rows, c.domain)
		h1 := heap()
		f := &maintFixture{shape: c.shape, eng: eng, bound: bindPrimed(t, prep, cdb), planted: planted}
		h2 := heap()
		f.maintain(t, f.apply(t, 0, 0, false))
		h3 := heap()
		f.maintain(t, f.apply(t, 0, 0, true))
		h4 := heap()
		runtime.KeepAlive(cdb)
		runtime.KeepAlive(f)
		ratio := float64(h4-h1) / float64(h1-h0)
		t.Logf("%s: compiled DB %.2f MB, Bind+prime %+.2f MB, first Rebind %+.2f MB, second %+.2f MB: query state %.2f× the database",
			c.name, mb(h1-h0), mb(h2-h1), mb(h3-h2), mb(h4-h3), ratio)
		if ratio > ceiling[c.name] {
			t.Errorf("%s: query state is %.1f× the compiled database, ceiling %.1f×", c.name, ratio, ceiling[c.name])
		}
	}
}

// TestFirstDiffFromIncremental: the first Rebind of a fresh Bind records its
// node deltas against Bind's enumeration state whether or not that state was
// ever enumerated, so the first DiffFrom reads them instead of diffing every
// node, and touches the same rows with and without a priming Enumerate.
func TestFirstDiffFromIncremental(t *testing.T) {
	ctx := context.Background()
	touched := map[bool]uint64{}
	for _, primed := range []bool{false, true} {
		eng, prep, cdb, planted := newMaintDB(t, maintPath3, 5000, 2500)
		b, err := prep.Bind(ctx, cdb)
		if err != nil {
			t.Fatal(err)
		}
		if primed {
			if err := b.Enumerate(ctx, func(Solution) bool { return false }); err != nil {
				t.Fatal(err)
			}
		}
		f := &maintFixture{shape: maintPath3, eng: eng, bound: b, planted: planted}
		nb, err := b.Rebind(ctx, f.apply(t, 0, 0, false))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := nb.ensureReduced().parent, b.ensureReduced().id; got != want {
			t.Fatalf("primed %v: the first Rebind names state %d as its parent, Bind's is %d", primed, got, want)
		}
		added, removed, err := nb.DiffFrom(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if added.Len() != 0 || removed.Len() != 1 {
			t.Fatalf("primed %v: deleting a planted tuple diffs to +%d/−%d rows, want +0/−1", primed, added.Len(), removed.Len())
		}
		touched[primed] = eng.Stats().MaintRowsTouched
		t.Logf("primed %v: Rebind + DiffFrom touched %d rows", primed, touched[primed])
	}
	if touched[false] != touched[true] {
		t.Fatalf("Rebind + DiffFrom touched %d rows after a bare Bind, %d after a primed one", touched[false], touched[true])
	}
}
