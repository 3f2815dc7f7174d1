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
// Bool, Count and EnumerateAll rows on every entry of a degree-2 corpus that
// plans at width ≤ 3 — the canonical query of each hypergraph over a seeded
// random database, dense enough that the cyclic entries have answers. The corpus is
// the repository benchmark's (batch.corpus), or a smaller one under -short.
// Every entry is bound twice: over its database as generated, whose random
// tuples repeat, so the atom relations are deduplicated copies; and over the
// same database with the repeats removed, where every table is a set and an
// atom over its distinct variables in order shares its table's rows. The two
// must agree too, and each path must be taken somewhere in the corpus.
func TestBindFormsAgreeOnCorpus(t *testing.T) {
	opts := hyperbench.Options{Seed: 5, PerFamily: 6, MaxWidth: 5}
	if testing.Short() {
		opts = hyperbench.Options{Seed: 1, PerFamily: 2, MaxWidth: 3}
	}
	c, err := hyperbench.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := NewEngine(WithMaxWidth(3))
	tuples := map[int]int{1: 300, 2: 60, 3: 14}
	checked, shared, deduped := 0, 0, 0
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
		prep, err := eng.Prepare(ctx, q)
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
		var first *BoundQuery
		for _, db := range []cq.Database{db, distinct(db)} {
			cdb, err := eng.CompileDB(ctx, db)
			if err != nil {
				t.Fatal(err)
			}
			oneShot, err := prep.Bind(ctx, cdb)
			if err != nil {
				t.Fatalf("%s: Bind: %v", e.Name, err)
			}
			maintained, err := roundTrip(ctx, oneShot, db)
			if err != nil {
				t.Fatalf("%s: round trip: %v", e.Name, err)
			}
			if desc := compareBound(ctx, oneShot, maintained); desc != "" {
				t.Errorf("%s (%s): Bind vs its maintained successor: %s", e.Name, q, desc)
			}
			if first == nil {
				first = oneShot
			} else if desc := compareBound(ctx, oneShot, first); desc != "" {
				t.Errorf("%s (%s): without repeated tuples vs as generated: %s", e.Name, q, desc)
			}
			for i, a := range q.Atoms {
				if sharesTable(oneShot.inst.AtomRels[i], cdb.sdb.Table(a.Rel)) {
					shared++
				} else if !cdb.sdb.Table(a.Rel).IsSet() {
					deduped++
				}
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no corpus entry planned at width ≤ 3")
	}
	if shared == 0 || deduped == 0 {
		t.Fatalf("atom relations sharing their table: %d, deduplicated: %d; want both", shared, deduped)
	}
	t.Logf("%d corpus entries agree (%d atoms share their table, %d deduplicated)", checked, shared, deduped)
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
