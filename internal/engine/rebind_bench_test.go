package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"d2cq/internal/cq"
	"d2cq/internal/graph"
	"d2cq/internal/hypergraph"
	"d2cq/internal/storage"
)

// maintShape is one query shape of the single-tuple maintenance fixtures:
// per-atom variable lists over relations named a, b, c, … — the shapes and
// sizings of the flush.closed workload of the repository benchmark.
type maintShape struct {
	name  string
	atoms [][]string
}

var (
	maintPath3  = maintShape{"path3", [][]string{{"x", "y"}, {"y", "z"}, {"z", "w"}}}
	maintCycle4 = maintShape{"cycle4", [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}}}
	maintCycle5 = maintShape{"cycle5", [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}, {"e", "a"}}}
	maintCycle6 = maintShape{"cycle6", [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}, {"e", "f"}, {"f", "a"}}}
	maintJigsaw = maintShape{"jigsaw2x3", [][]string{{"h11", "v1"}, {"h11", "h12", "v2"}, {"h12", "v3"},
		{"h21", "v1"}, {"h21", "h22", "v2"}, {"h22", "v3"}}}
)

// maintSubgrid is the corpus's subgrid-3x2 shape: the dual of the subdivided
// 3×2 grid, one atom per vertex of the subdivided grid over its edges.
var maintSubgrid = dualShape("subgrid3x2", hypergraph.FromGraph(graph.Subdivide(graph.Grid(3, 2))).Dual())

// dualShape is the maintShape of a hypergraph: one atom per edge, over
// variables named after the vertices.
func dualShape(name string, h *hypergraph.Hypergraph) maintShape {
	s := maintShape{name: name}
	for e := 0; e < h.NE(); e++ {
		var vars []string
		for _, v := range h.EdgeVertices(e) {
			vars = append(vars, fmt.Sprintf("x%d", v))
		}
		s.atoms = append(s.atoms, vars)
	}
	return s
}

func (s maintShape) rel(i int) string { return string(rune('a' + i)) }

func (s maintShape) query() string {
	parts := make([]string, len(s.atoms))
	for i, vars := range s.atoms {
		parts[i] = s.rel(i) + "(" + strings.Join(vars, ",") + ")"
	}
	return strings.Join(parts, ", ")
}

// maintFixture is a bound query over a seeded database of `rows` tuples per
// relation: four fifths random background over [0,domain) per column (the
// joins' fan-out, never touched) and one fifth projections of planted
// solutions — full assignments whose values collide with nothing else, so
// toggling any one tuple of one is certain to remove or restore exactly that
// result row.
type maintFixture struct {
	shape   maintShape
	eng     *Engine
	bound   *BoundQuery
	planted int
}

func newMaintFixture(tb testing.TB, s maintShape, rows, domain int) *maintFixture {
	tb.Helper()
	ctx := context.Background()
	eng, prep, cdb, planted := newMaintDB(tb, s, rows, domain)
	b, err := prep.BindMaintained(ctx, cdb)
	if err != nil {
		tb.Fatal(err)
	}
	// Prime the caches the way a live registration does.
	if _, err := b.Count(ctx); err != nil {
		tb.Fatal(err)
	}
	if err := b.Enumerate(ctx, func(Solution) bool { return false }); err != nil {
		tb.Fatal(err)
	}
	return &maintFixture{shape: s, eng: eng, bound: b, planted: planted}
}

// newMaintDB prepares the shape's query on a fresh engine and compiles its
// seeded database (see maintFixture), returning the planted solution count.
func newMaintDB(tb testing.TB, s maintShape, rows, domain int) (*Engine, *PreparedQuery, *CompiledDB, int) {
	tb.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(int64(rows)))
	db := cq.Database{}
	planted := rows / 5
	for i, vars := range s.atoms {
		for n := 0; n < rows-planted; n++ {
			t := make([]string, len(vars))
			for j := range t {
				t[j] = fmt.Sprint(rng.Intn(domain))
			}
			db.Add(s.rel(i), t...)
		}
		for j := 0; j < planted; j++ {
			db.Add(s.rel(i), s.plantedTuple(j, i)...)
		}
	}
	eng := NewEngine()
	q, err := cq.ParseQuery(s.query())
	if err != nil {
		tb.Fatal(err)
	}
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		tb.Fatal(err)
	}
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		tb.Fatal(err)
	}
	return eng, prep, cdb, planted
}

// plantedTuple projects planted solution j onto atom i.
func (s maintShape) plantedTuple(j, i int) []string {
	t := make([]string, len(s.atoms[i]))
	for k, v := range s.atoms[i] {
		t[k] = fmt.Sprintf("p%d_%s", j, v)
	}
	return t
}

// apply deletes (or restores) the atom-i tuple of planted solution j in the
// bound query's database and returns the successor snapshot.
func (f *maintFixture) apply(tb testing.TB, j, i int, insert bool) *CompiledDB {
	d := storage.NewDelta()
	if insert {
		d.Add(f.shape.rel(i), f.shape.plantedTuple(j, i)...)
	} else {
		d.Remove(f.shape.rel(i), f.shape.plantedTuple(j, i)...)
	}
	ncdb, err := f.bound.Database().Apply(context.Background(), d)
	if err != nil {
		tb.Fatal(err)
	}
	return ncdb
}

// maintain carries the bound query across to ncdb — Rebind, Count, DiffFrom:
// the per-query engine calls of one live flush — and returns the size of the
// result diff.
func (f *maintFixture) maintain(tb testing.TB, ncdb *CompiledDB) int {
	ctx := context.Background()
	nb, err := f.bound.Rebind(ctx, ncdb)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := nb.Count(ctx); err != nil {
		tb.Fatal(err)
	}
	added, removed, err := nb.DiffFrom(ctx, f.bound)
	if err != nil {
		tb.Fatal(err)
	}
	f.bound = nb
	return added.Len() + removed.Len()
}

// warm toggles one tuple of every relation once, so the one-off cost of the
// first maintenance (building the maintenance state) stays out of what
// follows.
func (f *maintFixture) warm(tb testing.TB) {
	for i := range f.shape.atoms {
		f.maintain(tb, f.apply(tb, 0, i, false))
		f.maintain(tb, f.apply(tb, 0, i, true))
	}
}

// BenchmarkRebindSingleTuple measures one live flush's engine work for a
// single result-changing tuple — Rebind + Count + DiffFrom over an untimed
// Apply, alternating delete and re-insert of a planted solution's tuple — on
// the flush.closed shapes. path3-5k vs path3-20k (same domain/row ratio) is the
// scaling pair: an O(change) path keeps the two within noise of each other.
// cycle4-5k is a 4-cycle sized like path3-5k, affordable only while its plan
// joins connected covers; cycle6-500 is the guard case whose width-2 plan
// must keep cross-product bags, so no planning change can help it.
func BenchmarkRebindSingleTuple(b *testing.B) {
	for _, c := range []struct {
		name         string
		shape        maintShape
		rows, domain int
	}{
		{"path3-5k", maintPath3, 5000, 2500},
		{"path3-20k", maintPath3, 20000, 10000},
		{"cycle4-500", maintCycle4, 500, 250},
		{"cycle4-5k", maintCycle4, 5000, 2500},
		{"cycle6-500", maintCycle6, 500, 250},
		{"jigsaw2x3-200", maintJigsaw, 200, 100},
	} {
		b.Run(c.name, func(b *testing.B) {
			f := newMaintFixture(b, c.shape, c.rows, c.domain)
			f.warm(b)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				// Each planted solution is deleted on an even step and
				// restored on the next, cycling through solutions and atoms.
				j, i := (n/2)%f.planted, (n/2)%len(c.shape.atoms)
				b.StopTimer()
				ncdb := f.apply(b, j, i, n%2 == 1)
				b.StartTimer()
				if f.maintain(b, ncdb) != 1 {
					b.Fatalf("step %d: toggling a planted tuple must change exactly one result row", n)
				}
			}
		})
	}
}

// BenchmarkBindOneShot measures one Bind on the seeded maintenance
// databases. cycle5, the 3×2 subgrid and cycle6 get plans whose covers are
// forced cross products, which the bottom-up materialisation joins through
// the children's messages instead; path3 is acyclic, where a message is a
// semijoin and must cost no more than one.
func BenchmarkBindOneShot(b *testing.B) {
	for _, c := range []struct {
		name         string
		shape        maintShape
		rows, domain int
	}{
		{"path3-5k", maintPath3, 5000, 2500},
		{"cycle5-500", maintCycle5, 500, 250},
		{"subgrid3x2-200", maintSubgrid, 200, 100},
		{"cycle6-500", maintCycle6, 500, 250},
	} {
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			_, prep, cdb, _ := newMaintDB(b, c.shape, c.rows, c.domain)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := prep.Bind(ctx, cdb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
