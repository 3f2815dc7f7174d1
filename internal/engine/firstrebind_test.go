package engine

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// TestFirstRebindAllocationsFlat: converting a bound query to maintained form
// allocates per map, not per row — every map is bulk-built — so the first
// Rebind of path3 at 20 000 rows per relation allocates within 10 % of the one
// at 5 000. The comparison is skipped under the race detector, whose
// sync.Pool drops Puts at random and so reallocates BuildPMap's pooled
// scratch a varying number of times.
func TestFirstRebindAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through sync.Pool vary under the race detector")
	}
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
		if got, want := nb.enumSt.parent, b.enumSt.id; got != want {
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

// TestRebindKeepsNoFlatRelations: a Rebind that changes what the query reads
// leaves a query holding only its database and the maintained state. Nothing
// reachable from the result, the plan aside, is Bind's instance, one of its
// atom or node relations, or its enumeration or counting state — on every
// rebind fixture shape, direct atoms and column permutations alike, before
// and after the query's first conversion to maintained form, and after a
// first Rebind whose delta its atoms filter out.
func TestRebindKeepsNoFlatRelations(t *testing.T) {
	check := func(what string, bound, nb *BoundQuery) {
		t.Helper()
		bind := map[unsafe.Pointer]bool{
			unsafe.Pointer(bound.inst): true, unsafe.Pointer(bound.enumSt): true, unsafe.Pointer(bound.countSt): true,
		}
		for _, rel := range append(append([]*Relation(nil), bound.inst.AtomRels...), bound.enumSt.rels...) {
			bind[unsafe.Pointer(rel)] = true
		}
		if nb.inst != nil || nb.enumSt.rels != nil || nb.maint == nil {
			t.Fatalf("%s: the Rebind's result keeps flat relations or no maintained state", what)
		}
		v := reflect.ValueOf(nb).Elem()
		for _, field := range []string{"maint", "enumSt", "countSt"} {
			if reaches(v.FieldByName(field), bind, map[reached]bool{}) {
				t.Fatalf("%s: the result's %s reaches Bind's flat state", what, field)
			}
		}
	}
	for _, s := range []maintShape{maintPath3, maintCycle4, maintCycle6, maintJigsaw} {
		f := newMaintFixture(t, s, 200, 100)
		bound := f.bound
		for step := range 2 * len(s.atoms) {
			f.maintain(t, f.apply(t, 0, step/2, step%2 == 1))
			check(fmt.Sprintf("%s step %d", s.name, step), bound, f.bound)
		}
	}
	// R(x,'c') filters out R(5,'d'): the first Rebind converts the query and
	// no node changes.
	ctx := context.Background()
	eng := NewEngine()
	q, err := cq.ParseQuery("R(x,'c'), S(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	cdb, err := eng.CompileDB(ctx, cq.Database{"R": {{"1", "c"}}, "S": {{"1", "2"}}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	next, err := cdb.Apply(ctx, storage.NewDelta().Add("R", "5", "d"))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.Rebind(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	check("a first Rebind its atoms filter out", b, nb)
	added, removed, err := nb.DiffFrom(ctx, b)
	if n, _ := nb.Count(ctx); err != nil || added.Len()+removed.Len() != 0 || n != 1 {
		t.Fatalf("filtered-out delta: err %v, diff +%d/−%d, count %d; want no change and 1 answer", err, added.Len(), removed.Len(), n)
	}
}

// TestSecondRebindDropsConvertedNodes: the first Rebind of a fresh Bind
// records Bind's nodes as it converted them, the old side of its DiffFrom;
// the second Rebind's result holds none of them, nor any node of the first
// result that it replaced, so a chain of Updates keeps only its head's
// nodes alive. A DiffFrom two Updates back — against Bind, and against the
// first result from the third — materialises both results and equals the
// oracle.
func TestSecondRebindDropsConvertedNodes(t *testing.T) {
	ctx := context.Background()
	for _, s := range []maintShape{maintPath3, maintCycle4, maintCycle6, maintJigsaw} {
		f := newMaintFixture(t, s, 200, 100)
		chain := []*BoundQuery{f.bound}
		for step := range 3 { // each deletes a tuple of another planted solution
			f.maintain(t, f.apply(t, step, step%len(s.atoms), false))
			chain = append(chain, f.bound)
		}
		first, second := chain[1].enumSt.m, chain[2].enumSt.m
		if first.base == nil {
			t.Fatalf("%s: the first Rebind records no converted nodes", s.name)
		}
		own := map[*nodeState]bool{}
		for _, ns := range second.nodes {
			own[ns] = true
		}
		gone := map[unsafe.Pointer]bool{}
		for _, ns := range append(slices.Clone(first.base.m.nodes), first.nodes...) {
			if !own[ns] {
				gone[unsafe.Pointer(ns)] = true
			}
		}
		if len(gone) == 0 {
			t.Fatalf("%s: the second Rebind replaced no node", s.name)
		}
		if reaches(reflect.ValueOf(chain[2]), gone, map[reached]bool{}) {
			t.Fatalf("%s: the second Rebind's result holds a node of the state before it", s.name)
		}
		for _, c := range []struct{ cur, prev *BoundQuery }{{chain[2], chain[0]}, {chain[3], chain[1]}} {
			oracle := f.eng.Stats().DiffsOracle
			added, removed, err := c.cur.DiffFrom(ctx, c.prev)
			if err != nil {
				t.Fatal(err)
			}
			if n := f.eng.Stats().DiffsOracle - oracle; n != 1 {
				t.Fatalf("%s: a DiffFrom two Updates back counts %d oracle diffs, want 1", s.name, n)
			}
			wa, wr, err := c.cur.diffOracle(ctx, c.prev)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRelation(t, s.name+": added", added, wa)
			requireSameRelation(t, s.name+": removed", removed, wr)
			if added.Len()+removed.Len() == 0 {
				t.Fatalf("%s: two Updates back diff to nothing", s.name)
			}
		}
	}
}

// reached is one visited pointer of reaches, with its type: a struct and its
// first field share an address.
type reached struct {
	p unsafe.Pointer
	t reflect.Type
}

// reaches reports whether v, or anything it points to through pointers,
// slices, arrays, structs, maps and interfaces, is one of the targets.
func reaches(v reflect.Value, targets map[unsafe.Pointer]bool, seen map[reached]bool) bool {
	switch v.Kind() {
	case reflect.Pointer, reflect.UnsafePointer:
		if v.IsNil() {
			return false
		}
		p := v.UnsafePointer()
		if targets[p] {
			return true
		}
		if v.Kind() == reflect.UnsafePointer || seen[reached{p, v.Type()}] {
			return false
		}
		seen[reached{p, v.Type()}] = true
		return reaches(v.Elem(), targets, seen)
	case reflect.Interface:
		return !v.IsNil() && reaches(v.Elem(), targets, seen)
	case reflect.Struct:
		for i := range v.NumField() {
			if reaches(v.Field(i), targets, seen) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k <= reflect.Complex128 || k == reflect.String {
			return false // scalars point nowhere
		}
		for i := range v.Len() {
			if reaches(v.Index(i), targets, seen) {
				return true
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if reaches(it.Key(), targets, seen) || reaches(it.Value(), targets, seen) {
				return true
			}
		}
	}
	return false
}
