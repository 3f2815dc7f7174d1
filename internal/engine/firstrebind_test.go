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
