package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"d2cq/internal/cq"
	"d2cq/internal/hyperbench"
	"d2cq/internal/storage"
)

// TestBindFormsAgreeOnCorpus: Bind and its maintained successor after a
// round trip (one tuple of each relation deleted, then restored: the first
// Rebind builds the maintained form, the second maintains it) give the same
// Bool, Count and EnumerateAll rows on every entry of testCorpus. Every
// entry is bound twice: over its database as generated, whose random
// tuples repeat, so the atom relations are deduplicated copies (an atom over
// its distinct variables in order shares the copy its table caches,
// Table.Distinct); and over the same database with the repeats removed,
// where every table is a set and an atom over its distinct variables in
// order shares its table's rows. The two must agree too, and each path must
// be taken somewhere in the corpus.
func TestBindFormsAgreeOnCorpus(t *testing.T) {
	ctx := context.Background()
	checked, shared, deduped := 0, 0, 0
	for _, e := range testCorpus(t) {
		var first *BoundQuery
		for _, db := range []cq.Database{e.db, distinct(e.db)} {
			cdb, err := e.prep.eng.CompileDB(ctx, db)
			if err != nil {
				t.Fatal(err)
			}
			oneShot, err := e.prep.Bind(ctx, cdb)
			if err != nil {
				t.Fatalf("%s: Bind: %v", e.name, err)
			}
			maintained, err := roundTrip(ctx, oneShot, db)
			if err != nil {
				t.Fatalf("%s: round trip: %v", e.name, err)
			}
			if desc := compareBound(ctx, oneShot, maintained); desc != "" {
				t.Errorf("%s (%s): Bind vs its maintained successor: %s", e.name, e.q, desc)
			}
			if first == nil {
				first = oneShot
			} else if desc := compareBound(ctx, oneShot, first); desc != "" {
				t.Errorf("%s (%s): without repeated tuples vs as generated: %s", e.name, e.q, desc)
			}
			for i, a := range e.q.Atoms {
				rel, tab := oneShot.inst.AtomRels[i], cdb.sdb.Table(a.Rel)
				switch {
				case sharesTable(rel, tab):
					shared++
				case len(tab.Distinct()) != len(tab.Data):
					deduped++
					if directArgs(a, a.VarSet()) && rel.Len() > 0 && &rel.Data[0] != &tab.Distinct()[0] {
						t.Errorf("%s: %s does not share its table's cached distinct rows", e.name, a)
					}
				}
			}
		}
		checked++
	}
	if shared == 0 || deduped == 0 {
		t.Fatalf("atom relations sharing their table: %d, deduplicated: %d; want both", shared, deduped)
	}
	t.Logf("%d corpus entries agree (%d atoms share their table, %d deduplicated)", checked, shared, deduped)
}

// corpusQuery is one entry of testCorpus: a corpus hypergraph's canonical
// query, prepared, and its seeded database.
type corpusQuery struct {
	name string
	q    cq.Query
	prep *PreparedQuery
	db   cq.Database
}

// testCorpus returns every entry of a degree-2 corpus that plans at width ≤
// 3 — the canonical query of each hypergraph over a seeded random database,
// dense enough that the cyclic entries have answers. The corpus is the
// repository benchmark's (batch.corpus), or a smaller one under -short. The
// random tuples repeat, so not every table is a set.
func testCorpus(t *testing.T) []corpusQuery {
	t.Helper()
	opts := hyperbench.Options{Seed: 5, PerFamily: 6, MaxWidth: 5}
	if testing.Short() {
		opts = hyperbench.Options{Seed: 1, PerFamily: 2, MaxWidth: 3}
	}
	c, err := hyperbench.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithMaxWidth(3))
	tuples := map[int]int{1: 300, 2: 60, 3: 14}
	var out []corpusQuery
	for i, e := range c.Entries {
		if e.GHW.Upper > 3 {
			continue
		}
		var q cq.Query
		for edge := 0; edge < e.H.NE(); edge++ {
			a := cq.Atom{Rel: fmt.Sprintf("r%d", edge)}
			for _, v := range e.H.EdgeVertices(edge) {
				a.Args = append(a.Args, cq.V(fmt.Sprintf("x%d", v)))
			}
			q.Atoms = append(q.Atoms, a)
		}
		prep, err := eng.Prepare(context.Background(), q)
		if err != nil {
			continue // the plan came out wider than the bound
		}
		// n random tuples per relation over (n+1)/2 constants, plus three
		// planted solutions, so that the high-arity entries answer too.
		n := tuples[max(1, prep.Plan().Width())]
		rng := rand.New(rand.NewSource(int64(i)))
		db := cq.Database{}
		for _, a := range q.Atoms {
			for k := 0; k < n; k++ {
				row := make([]string, len(a.Args))
				for j := range row {
					row[j] = fmt.Sprint(rng.Intn((n + 1) / 2))
				}
				db.Add(a.Rel, row...)
			}
		}
		for k := 0; k < 3; k++ {
			sol := map[string]string{}
			for _, v := range q.Vars() {
				sol[v] = fmt.Sprint(rng.Intn((n + 1) / 2))
			}
			for _, a := range q.Atoms {
				row := make([]string, len(a.Args))
				for j, arg := range a.Args {
					row[j] = sol[arg.Name]
				}
				db.Add(a.Rel, row...)
			}
		}
		out = append(out, corpusQuery{name: e.Name, q: q, prep: prep, db: db})
	}
	if len(out) == 0 {
		t.Fatal("no corpus entry planned at width ≤ 3")
	}
	return out
}

// TestPlanRulesOnCorpus checks Bind's two plan-time savings on the corpus of
// TestBindFormsAgreeOnCorpus. An atom assigned to node u that is no filter
// there, although no λ edge of u is over its variables, is enforced by a λ
// edge below u: every row of B(u) must satisfy it. And some λ edge must be
// joined through its projection. The corpus must exercise both.
func TestPlanRulesOnCorpus(t *testing.T) {
	ctx := context.Background()
	dropped, projected := 0, 0
	for _, e := range testCorpus(t) {
		p := e.prep.Plan()
		cdb, err := e.prep.eng.CompileDB(ctx, e.db)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.prep.Bind(ctx, cdb)
		if err != nil {
			t.Fatalf("%s: Bind: %v", e.name, err)
		}
		for ai, a := range e.q.Atoms {
			vars := a.VarSet()
			u := slices.IndexFunc(p.bagVars, func(bag []string) bool { return isSubset(vars, bag) })
			if slices.Contains(p.filters[u], ai) || slices.ContainsFunc(p.lambdaVars[u], func(names []string) bool { return slices.Equal(names, vars) }) {
				continue
			}
			dropped++
			rel := b.inst.AtomRels[ai]
			member := storage.NewTupleMap(len(vars), rel.Len())
			for i := 0; i < rel.Len(); i++ {
				member.Insert(rel.Row(i))
			}
			pos := colIndexes(b.nodeRels[u], vars)
			key := make([]Value, len(vars))
			for i := 0; i < b.nodeRels[u].Len(); i++ {
				if member.Find(project(key, b.nodeRels[u].Row(i), pos)) < 0 {
					t.Errorf("%s: row %v of node %d violates %s, which it does not filter by", e.name, b.nodeRels[u].Row(i), u, a)
					break
				}
			}
		}
		for u := range p.lambdaKeep {
			for _, keep := range p.lambdaKeep[u] {
				if keep != nil {
					projected++
				}
			}
		}
	}
	if dropped == 0 || projected == 0 {
		t.Fatalf("filters enforced below: %d, λ edges joined through a projection: %d; want both", dropped, projected)
	}
	t.Logf("%d filters enforced below their node, %d λ edges joined through a projection", dropped, projected)
}

// isSubset reports whether every name of a is one of b's.
func isSubset(a, b []string) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

// distinct returns db without repeated tuples.
func distinct(db cq.Database) cq.Database {
	out := cq.Database{}
	for rel, tuples := range db {
		seen := map[string]bool{}
		for _, tuple := range tuples {
			if k := strings.Join(tuple, "\x00"); !seen[k] {
				seen[k] = true
				out.Add(rel, tuple...)
			}
		}
	}
	return out
}

// sharesTable reports whether a relation's rows are a flat table's own Data.
func sharesTable(rel *Relation, t *storage.Table) bool {
	return t != nil && len(rel.Data) > 0 && len(t.Data) > 0 && &rel.Data[0] == &t.Data[0]
}

// TestBindLeavesTablesUntouched: relations are never written once built, so
// an atom relation may be its table's own rows and operators may return
// their inputs. Every evaluation call and an Update must then leave every
// compiled table exactly as it was. The queries cover
// atoms sharing their table, atoms with constants and repeated variables,
// relations with repeated tuples, forced cross-product covers, and a query
// in two components, whose decomposition has a child sharing no variable
// with its parent: a nullary message.
func TestBindLeavesTablesUntouched(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	db := cq.Database{}
	for _, rel := range []string{"A", "B", "C", "D", "E", "F"} {
		for k := 0; k < 50; k++ {
			db.Add(rel, fmt.Sprint(rng.Intn(10)), fmt.Sprint(rng.Intn(10)))
		}
	}
	db = distinct(db)
	// A repeats a tuple, first and midway, so A is not a set (B…F are), and
	// deduplicating it in place would move the rows after the repeat.
	a, one := db["A"], []string{"1", "1"}
	db["A"] = slices.Concat([][]string{one}, a[:len(a)/2], [][]string{one}, a[len(a)/2:])
	queries := []string{
		"A(x,y), B(y,z), C(z,w)",
		"A(x0,x1), B(x1,x2), C(x2,x3), D(x3,x4), E(x4,x0)",
		"A(x,y), B(y,z), C(u,v), D(v,w)",
		"A(x,x), B(x,y), C(y,1), D(1,z), E(z,y)",
		"B(y,x), C(x,z), F(z,y)",
	}
	eng := NewEngine(WithMaxWidth(3))
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	before := map[string][]Value{}
	for _, name := range cdb.sdb.Relations() {
		before[name] = slices.Clone(cdb.sdb.Table(name).Data)
	}
	delta := storage.NewDelta().Add("A", "2", "3").Add("B", "3", "4").Remove("C", "5", "5")
	nullary, shared := false, 0
	for _, text := range queries {
		q, err := cq.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := eng.Prepare(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		p := prep.Plan()
		for u := 0; u < p.d.Nodes(); u++ {
			nullary = nullary || (p.d.Parent[u] >= 0 && len(p.shared[u]) == 0)
		}
		n, err := NaiveCount(q, db)
		if err != nil {
			t.Fatal(err)
		}
		b, err := prep.Bind(ctx, cdb)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		for i, a := range q.Atoms {
			if sharesTable(b.inst.AtomRels[i], cdb.sdb.Table(a.Rel)) {
				shared++
			}
		}
		if desc := compareBound(ctx, b, b); desc != "" {
			t.Errorf("%s: %s", text, desc)
		}
		if c, _ := b.Count(ctx); c != n {
			t.Errorf("%s: Count %d, naive %d", text, c, n)
		}
		err = b.Enumerate(ctx, func(Solution) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		nb, err := b.Update(ctx, delta)
		if err != nil {
			t.Fatalf("%s: Update: %v", text, err)
		}
		if desc := compareBound(ctx, nb, nb); desc != "" {
			t.Errorf("%s after Update: %s", text, desc)
		}
	}
	if !nullary || shared == 0 {
		t.Fatalf("a child sharing no variable with its parent: %v; atoms sharing their table: %d", nullary, shared)
	}
	for name, rows := range before {
		if !slices.Equal(cdb.sdb.Table(name).Data, rows) {
			t.Errorf("table %s changed", name)
		}
	}
}

// TestBindConcurrentFirstUse races the state this file's binds set up
// lazily or share: first binds over tables whose set check has not run,
// first Enumerates of one maintained query (over the enumeration state its
// Rebind derived), and Updates of one Bind query (which load its messages
// into the maintained nodes' parent groupings). Run with -race.
func TestBindConcurrentFirstUse(t *testing.T) {
	ctx := context.Background()
	q, db := cycleQuery(5, 3)
	eng := NewEngine()
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NaiveCount(q, db)
	if err != nil || want == 0 {
		t.Fatalf("fixture should have solutions (n=%d err=%v)", want, err)
	}
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	maintained, err := roundTrip(ctx, oneShot, db)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := eng.CompileDB(ctx, db) // its tables' set checks have not run
	if err != nil {
		t.Fatal(err)
	}
	a := q.Atoms[0]
	delta := storage.NewDelta().Add(a.Rel, "n0", "n1")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b, err := prep.Bind(ctx, fresh)
			if err != nil {
				t.Error(err)
				return
			}
			for _, b := range []*BoundQuery{b, maintained} {
				if n, err := b.Count(ctx); err != nil || n != want {
					t.Errorf("Count = %d, %v; want %d", n, err, want)
				}
			}
			if err := maintained.Enumerate(ctx, func(Solution) bool { return false }); err != nil {
				t.Error(err)
			}
			nb, err := oneShot.Update(ctx, delta)
			if err != nil {
				t.Error(err)
				return
			}
			if desc := compareBound(ctx, nb, nb); desc != "" {
				t.Error(desc)
			}
		}(g)
	}
	wg.Wait()
}
