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
	eng, prep, cdb, planted := newMaintDB(tb, s, rows, domain)
	return &maintFixture{shape: s, eng: eng, bound: bindPrimed(tb, prep, cdb), planted: planted}
}

// bindPrimed binds prep over cdb and primes the caches the way a live
// registration does: a Count and the first step of an Enumerate.
func bindPrimed(tb testing.TB, prep *PreparedQuery, cdb *CompiledDB) *BoundQuery {
	tb.Helper()
	ctx := context.Background()
	b, err := prep.Bind(ctx, cdb)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := b.Count(ctx); err != nil {
		tb.Fatal(err)
	}
	if err := b.Enumerate(ctx, func(Solution) bool { return false }); err != nil {
		tb.Fatal(err)
	}
	return b
}

// newMaintDB prepares the shape's query on a fresh engine and compiles its
// seeded database (see maintFixture), returning the planted solution count.
func newMaintDB(tb testing.TB, s maintShape, rows, domain int) (*Engine, *PreparedQuery, *CompiledDB, int) {
	db, planted := s.database(rows, domain)
	eng, prep, cdb := compileShape(tb, s, db)
	return eng, prep, cdb, planted
}

// compileShape prepares the shape's query on a fresh engine and compiles db.
func compileShape(tb testing.TB, s maintShape, db cq.Database) (*Engine, *PreparedQuery, *CompiledDB) {
	tb.Helper()
	ctx := context.Background()
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
	return eng, prep, cdb
}

// database is the shape's seeded database (see maintFixture) and its planted
// solution count.
func (s maintShape) database(rows, domain int) (cq.Database, int) {
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
	return db, planted
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
	return f.applyDelta(tb, d)
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

// batch deletes (or restores) k planted tuples in one delta and returns the
// successor snapshot. Tuple t is atom (t mod planted + t div planted) mod
// |atoms| of planted solution t mod planted: spread over every relation, and
// over distinct solutions while k ≤ planted, so the result changes by
// min(k, planted) rows; k may be up to planted·|atoms|.
func (f *maintFixture) batch(tb testing.TB, k int, insert bool) *CompiledDB {
	d := storage.NewDelta()
	for t := 0; t < k; t++ {
		j := t % f.planted
		i := (j + t/f.planted) % len(f.shape.atoms)
		if insert {
			d.Add(f.shape.rel(i), f.shape.plantedTuple(j, i)...)
		} else {
			d.Remove(f.shape.rel(i), f.shape.plantedTuple(j, i)...)
		}
	}
	return f.applyDelta(tb, d)
}

// applyDelta applies d to the bound query's database and returns the
// successor snapshot.
func (f *maintFixture) applyDelta(tb testing.TB, d *storage.Delta) *CompiledDB {
	ncdb, err := f.bound.Database().Apply(context.Background(), d)
	if err != nil {
		tb.Fatal(err)
	}
	return ncdb
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

// maintSizing is a shape's seeded database at one size (maintShape.database).
type maintSizing struct {
	name         string
	shape        maintShape
	rows, domain int
}

// rebindFixtures are the maintenance benchmarks' bound queries: the
// flush.closed shapes and sizings. path3-5k vs path3-20k (same domain/row
// ratio) is the scaling pair. cycle4-5k is a 4-cycle sized like path3-5k,
// affordable only while its plan joins connected covers; cycle6-500 is the
// guard case whose width-2 plan keeps covers that share no variable, which
// only the children's key sets connect.
var rebindFixtures = []maintSizing{
	{"path3-5k", maintPath3, 5000, 2500},
	{"path3-20k", maintPath3, 20000, 10000},
	{"cycle4-500", maintCycle4, 500, 250},
	{"cycle4-5k", maintCycle4, 5000, 2500},
	{"cycle6-500", maintCycle6, 500, 250},
	{"jigsaw2x3-200", maintJigsaw, 200, 100},
}

// newHotFixture is path3-hot: path3 (planned with root b, bag {y,z}) over
// 4 000 seeded rows per relation (maintShape.database, domain 2 000) plus d
// rows b(hot, dz_i), none of whose dz_i any c row matches: y = hot is a key
// of degree d in b that joins nothing. hotToggle's tuple a(xnew, hot) brings
// hot into a's key set and takes it out again, and changes no answer.
func newHotFixture(tb testing.TB, d int) *maintFixture {
	tb.Helper()
	db, planted := maintPath3.database(4000, 2000)
	for i := 0; i < d; i++ {
		db.Add(maintPath3.rel(1), "hot", fmt.Sprint("dz", i))
	}
	eng, prep, cdb := compileShape(tb, maintPath3, db)
	return &maintFixture{shape: maintPath3, eng: eng, bound: bindPrimed(tb, prep, cdb), planted: planted}
}

// hotToggle inserts (or deletes) path3-hot's a(xnew, hot) and returns the
// successor snapshot.
func (f *maintFixture) hotToggle(tb testing.TB, insert bool) *CompiledDB {
	if insert {
		return f.applyDelta(tb, storage.NewDelta().Add(f.shape.rel(0), "xnew", "hot"))
	}
	return f.applyDelta(tb, storage.NewDelta().Remove(f.shape.rel(0), "xnew", "hot"))
}

// BenchmarkRebindSingleTuple measures one live flush's engine work for a
// single result-changing tuple — Rebind + Count + DiffFrom over an untimed
// Apply, alternating delete and re-insert of a planted solution's tuple — on
// rebindFixtures, past the first maintenance. An O(change) path keeps
// path3-5k and path3-20k within noise of each other.
func BenchmarkRebindSingleTuple(b *testing.B) {
	for _, c := range rebindFixtures {
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

// BenchmarkRebindBatch measures one flush's engine work for a batch of k
// tuples in one delta — Rebind + Count + DiffFrom over an untimed Apply,
// alternating the deletion of k planted tuples spread over the relations
// (maintFixture.batch) and their restoration — at k = 1, 10, 100, 1 000 and
// half the planted tuples, on path3-5k, cycle4-5k and cycle6-500, past the
// first maintenance. Two more cases: rewrite replaces path3-5k's relation a
// wholesale, back and forth, so that Apply rewrites it flat and the atom's
// diff lists the whole table; flip toggles the only tuple of T in R(a,b),
// S(b,c), T(d,e) — relations a, b, c here — over 5 000 rows: T shares no
// variable with the rest, so the nodes its nullary key set holds empty and
// fill whole.
func BenchmarkRebindBatch(b *testing.B) {
	for _, name := range []string{"path3-5k", "cycle4-5k", "cycle6-500"} {
		c := rebindFixture(name)
		half := c.rows / 5 * len(c.shape.atoms) / 2 // maintShape.database plants a fifth of the rows
		for _, k := range []int{1, 10, 100, 1000, half} {
			if k > half {
				continue
			}
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				f := newMaintFixture(b, c.shape, c.rows, c.domain)
				f.warm(b)
				want := min(k, f.planted)
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					b.StopTimer()
					ncdb := f.batch(b, k, n%2 == 1)
					b.StartTimer()
					if got := f.maintain(b, ncdb); got != want {
						b.Fatalf("step %d: the batch changed %d result rows, want %d", n, got, want)
					}
				}
			})
		}
	}
	b.Run("rewrite", func(b *testing.B) {
		c := rebindFixture("path3-5k")
		f := newMaintFixture(b, c.shape, c.rows, c.domain)
		f.warm(b)
		// There and back: every row of a replaced by one with a renamed x,
		// which changes every answer and keeps the joins' fan-out.
		there, back := storage.NewDelta(), storage.NewDelta()
		cdb := f.bound.Database()
		cdb.sdb.Table("a").Scan(func(row []Value) {
			x, y := cdb.sdb.Dict.Name(row[0]), cdb.sdb.Dict.Name(row[1])
			there.Remove("a", x, y).Add("a", "r"+x, y)
			back.Remove("a", "r"+x, y).Add("a", x, y)
		})
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			d := there
			if n%2 == 1 {
				d = back
			}
			ncdb := f.applyDelta(b, d)
			if !ncdb.sdb.Table("a").Flat() {
				b.Fatal("a wholesale replacement must rewrite the table flat")
			}
			b.StartTimer()
			if f.maintain(b, ncdb) == 0 {
				b.Fatalf("step %d: replacing a relation wholesale changed no answer", n)
			}
		}
	})
	b.Run("flip", func(b *testing.B) {
		shape := maintShape{"flip", [][]string{{"a", "b"}, {"b", "c"}, {"d", "e"}}}
		db, _ := shape.database(5000, 2500)
		delete(db, shape.rel(2))
		db.Add(shape.rel(2), "t", "t")
		eng, prep, cdb := compileShape(b, shape, db)
		f := &maintFixture{shape: shape, eng: eng, bound: bindPrimed(b, prep, cdb)}
		toggle := func(insert bool) *CompiledDB {
			if insert {
				return f.applyDelta(b, storage.NewDelta().Add(shape.rel(2), "t", "t"))
			}
			return f.applyDelta(b, storage.NewDelta().Remove(shape.rel(2), "t", "t"))
		}
		answers, err := f.bound.Count(context.Background())
		if err != nil || answers == 0 {
			b.Fatalf("the flip fixture has %d answers (%v)", answers, err)
		}
		f.maintain(b, toggle(false))
		f.maintain(b, toggle(true))
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			ncdb := toggle(n%2 == 1)
			b.StartTimer()
			if got := f.maintain(b, ncdb); int64(got) != answers {
				b.Fatalf("step %d: toggling T changed %d answers, want all %d", n, got, answers)
			}
		}
	})
}

// rebindFixture returns the rebindFixtures entry of the given name.
func rebindFixture(name string) maintSizing {
	for _, c := range rebindFixtures {
		if c.name == name {
			return c
		}
	}
	panic("no rebind fixture " + name)
}

// BenchmarkFirstRebind measures what a registration pays before its first
// write is answered, on rebindFixtures: bind is Bind plus the priming Count
// and Enumerate; first-rebind is the first Rebind + Count + DiffFrom after
// it, over an untimed Bind and Apply deleting one planted tuple — the
// conversion of every atom, node, index and counting message to maintained
// form, plus one flush's maintenance.
func BenchmarkFirstRebind(b *testing.B) {
	for _, c := range rebindFixtures {
		b.Run(c.name+"/bind", func(b *testing.B) {
			_, prep, cdb, _ := newMaintDB(b, c.shape, c.rows, c.domain)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				bindPrimed(b, prep, cdb)
			}
		})
		b.Run(c.name+"/first-rebind", func(b *testing.B) {
			eng, prep, cdb, planted := newMaintDB(b, c.shape, c.rows, c.domain)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				f := &maintFixture{shape: c.shape, eng: eng, bound: bindPrimed(b, prep, cdb), planted: planted}
				ncdb := f.apply(b, n%planted, n%len(c.shape.atoms), false)
				b.StartTimer()
				if f.maintain(b, ncdb) != 1 {
					b.Fatal("deleting a planted tuple must remove exactly one result row")
				}
			}
		})
	}
}

// oneShotShapes are the seeded maintenance databases the one-shot
// benchmarks bind. cycle5, the 3×2 subgrid and cycle6 get plans whose covers
// are forced cross products, which the bottom-up materialisation joins
// through the children's messages instead; path3 is acyclic, where a message
// is a semijoin filter and must cost no more than one.
var oneShotShapes = []maintSizing{
	{"path3-5k", maintPath3, 5000, 2500},
	{"cycle5-500", maintCycle5, 500, 250},
	{"subgrid3x2-200", maintSubgrid, 200, 100},
	{"cycle6-500", maintCycle6, 500, 250},
}

// BenchmarkBindOneShot measures one Bind and Count on oneShotShapes. Bind
// runs the counting DP on its way up, so Count only reads the total; the
// pair is timed together, since timing Bind alone would charge it with
// Count's work and compare unlike things.
func BenchmarkBindOneShot(b *testing.B) {
	for _, c := range oneShotShapes {
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			_, prep, cdb, _ := newMaintDB(b, c.shape, c.rows, c.domain)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				bound, err := prep.Bind(ctx, cdb)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bound.Count(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnumerateFirst measures the read side of a one-shot evaluation:
// the first EnumerateAll after an untimed Bind on oneShotShapes — the
// enumeration indexes over the bottom-up reduced nodes, the enumeration and
// the display sort.
func BenchmarkEnumerateFirst(b *testing.B) {
	for _, c := range oneShotShapes {
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			_, prep, cdb, _ := newMaintDB(b, c.shape, c.rows, c.domain)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				bound, err := prep.Bind(ctx, cdb)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := bound.EnumerateAll(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
