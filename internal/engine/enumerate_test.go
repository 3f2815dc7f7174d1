package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"d2cq/internal/cq"
	"d2cq/internal/decomp"
	"d2cq/internal/storage"
)

func TestEnumerateAllMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	eng := NewEngine()
	for trial := 0; trial < 40; trial++ {
		query, db := randomInstance(r)
		naiveRel, naiveDict, err := NaiveEnumerate(query, db)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := eng.Prepare(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		ghdRel, ghdDict, err := prep.EnumerateAll(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualRelations(naiveRel, naiveDict, ghdRel, ghdDict) {
			t.Fatalf("trial %d: enumeration differs (%d vs %d rows)\nq=%s\ndb=%v",
				trial, naiveRel.Len(), ghdRel.Len(), query, db)
		}
	}
}

func TestEnumerateSkipsDanglingTuples(t *testing.T) {
	// R(x,y) ⋈ S(y,z) over two nodes: the bottom-up pass drops the root's
	// tuple with no partner below; the child's tuple with no partner above
	// stays in its bag, and the enumeration from the root never reaches it.
	ctx := context.Background()
	db := cq.Database{}
	db.Add("R", "1", "2")
	db.Add("R", "9", "9") // dangling
	db.Add("S", "2", "3")
	db.Add("S", "8", "8") // dangling
	query, err := cq.ParseQuery("R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Compile(query, db)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decomp.EvalDecomposition(context.Background(), query.Hypergraph(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(query, d)
	if err != nil {
		t.Fatal(err)
	}
	if p.d.Nodes() != 2 {
		t.Fatalf("plan has %d nodes, want 2", p.d.Nodes())
	}
	rels, cs, err := bindNodes(ctx, p, inst)
	if err != nil {
		t.Fatal(err)
	}
	for u, rel := range rels {
		want := 2
		if u == p.d.Root() {
			want = 1
		}
		if rel.Len() != want {
			t.Errorf("node %d has %d tuples after the bottom-up pass, want %d", u, rel.Len(), want)
		}
	}
	es := &enumState{plan: p, rels: rels, groups: cs.groups}
	var got []string
	err = es.enumerate(ctx, func(row []Value) bool {
		for _, v := range row {
			got = append(got, inst.Dict.Name(v))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"1", "2", "3"}; !slices.Equal(got, want) {
		t.Errorf("enumeration yields %v, want the one solution %v", got, want)
	}
}

func TestEnumerateGroundQuery(t *testing.T) {
	db := cq.Database{}
	db.Add("Fact", "a")
	query, err := cq.ParseQuery("Fact('a')")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	prep, err := eng.Prepare(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := prep.EnumerateAll(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Arity() != 0 {
		t.Errorf("ground query solutions = %d (arity %d), want the empty tuple", rel.Len(), rel.Arity())
	}
	// Absent fact: no solutions.
	query2, _ := cq.ParseQuery("Fact('b')")
	prep2, err := eng.Prepare(context.Background(), query2)
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err = prep2.EnumerateAll(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Errorf("unsatisfied ground query has %d solutions", rel.Len())
	}
}

func TestEqualRelationsDetectsDifferences(t *testing.T) {
	da, dbq := NewDict(), NewDict()
	intern := func(d *Dict, name string) Value {
		v, err := d.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a := NewRelation("x")
	a.Add(intern(da, "v1"))
	b := NewRelation("x")
	b.Add(intern(dbq, "v1"))
	if !EqualRelations(a, da, b, dbq) {
		t.Error("identical single-tuple relations reported different")
	}
	b.Add(intern(dbq, "v2"))
	b.Dedup()
	if EqualRelations(a, da, b, dbq) {
		t.Error("different sizes reported equal")
	}
	c := NewRelation("x")
	c.Add(intern(dbq, "v2"))
	if EqualRelations(a, da, c, dbq) {
		t.Error("different contents reported equal")
	}
}

func TestEnumerateStarQuery(t *testing.T) {
	// Star query: center variable shared across k atoms.
	q := cq.Query{}
	db := cq.Database{}
	for i := 0; i < 4; i++ {
		rel := fmt.Sprintf("L%d", i)
		q.Atoms = append(q.Atoms, cq.Atom{Rel: rel, Args: []cq.Term{cq.V("c"), cq.V(fmt.Sprintf("l%d", i))}})
		db.Add(rel, "hub", fmt.Sprintf("leaf%d", i))
		db.Add(rel, "hub", "shared")
		db.Add(rel, "other", "x")
	}
	naiveRel, nd, err := NaiveEnumerate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := NewEngine().Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ghdRel, gd, err := prep.EnumerateAll(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualRelations(naiveRel, nd, ghdRel, gd) {
		t.Fatalf("star query enumeration differs: %d vs %d", naiveRel.Len(), ghdRel.Len())
	}
	// hub contributes 2^4 = 16 combos; "other" fails on intersect? No:
	// c = other works too (each relation has (other, x)) → +1.
	if naiveRel.Len() != 17 {
		t.Errorf("star query solutions = %d, want 17", naiveRel.Len())
	}
}

// pathFixture binds R(a,b), S(b,c), T(c,d) on a new engine without options over a
// database with a few hundred answers, returning the bound query.
func pathFixture(t *testing.T) *BoundQuery {
	t.Helper()
	ctx := context.Background()
	eng := NewEngine()
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

// TestEnumerateEarlyStop: returning false from yield on the 5th row stops
// the enumeration after exactly 5 calls with a nil error — over the flat
// enumeration state of a fresh Bind, and over the maintained one an Update
// derives from it, whose root streams off its persistent set.
func TestEnumerateEarlyStop(t *testing.T) {
	ctx := context.Background()
	b := pathFixture(t)
	check := func(name string, b *BoundQuery) {
		t.Helper()
		seen := 0
		err := b.Enumerate(ctx, func(Solution) bool {
			seen++
			return seen < 5
		})
		if err != nil {
			t.Fatalf("%s: early stop should return nil, got %v", name, err)
		}
		if seen != 5 {
			t.Fatalf("%s: yield called %d times after stopping at 5", name, seen)
		}
	}
	check("flat", b)
	nb, err := b.Update(ctx, storage.NewDelta().Add("R", "w0", "0"))
	if err != nil {
		t.Fatal(err)
	}
	check("maintained", nb)
	if es := nb.enumSt; es == nil || es.m == nil {
		t.Fatal("Update did not carry the enumeration state forward in maintained form")
	}
}
