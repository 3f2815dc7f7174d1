package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"d2cq/internal/bitset"
	"d2cq/internal/cq"
	"d2cq/internal/decomp"
)

func q(t *testing.T, s string) cq.Query {
	t.Helper()
	query, err := cq.ParseQuery(s)
	if err != nil {
		t.Fatal(err)
	}
	return query
}

// prepared compiles query with the default engine.
func prepared(t *testing.T, query cq.Query) *PreparedQuery {
	t.Helper()
	p, err := Default().Prepare(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDict(t *testing.T) {
	d := NewDict()
	a, err := d.Intern("a")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := d.Intern("a"); again != a {
		t.Error("intern not stable")
	}
	if d.Name(a) != "a" {
		t.Error("name lookup broken")
	}
	f, err := d.Intern("★")
	if err != nil || f == a || d.Name(f) != "★" || d.Len() != 2 {
		t.Error("new constant collided")
	}
}

func TestRelationOps(t *testing.T) {
	r := NewRelation("x", "y")
	r.Add(1, 2)
	r.Add(1, 2) // duplicate
	r.Add(3, 4)
	r.Dedup()
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	p := r.Project([]string{"x"})
	if p.Len() != 2 || p.Arity() != 1 {
		t.Fatalf("projection wrong: %v", p)
	}
	s := NewRelation("y", "z")
	s.Add(2, 9)
	s.Add(4, 8)
	s.Add(4, 7)
	j := Join(r, s)
	if j.Len() != 3 { // (1,2,9), (3,4,8), (3,4,7)
		t.Fatalf("join size = %d, want 3", j.Len())
	}
	sj := semijoin(r, s)
	if sj.Len() != 2 {
		t.Fatalf("semijoin size = %d, want 2", sj.Len())
	}
	// Disjoint-column semijoin behaves as emptiness test.
	u := NewRelation("w")
	if semijoin(r, u).Len() != 0 {
		t.Error("semijoin with empty disjoint relation should be empty")
	}
	u.Add(5)
	if semijoin(r, u).Len() != 2 {
		t.Error("semijoin with non-empty disjoint relation should keep r")
	}
}

func TestAtomRelationConstantsAndRepeats(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "a", "a", "k")
	db.Add("R", "a", "b", "k")
	db.Add("R", "c", "c", "x")
	inst, err := Compile(q(t, "R(u, u, 'k')"), db)
	if err != nil {
		t.Fatal(err)
	}
	rel := inst.AtomRels[0]
	// Only (a,a,k) matches u=u and the constant k.
	if rel.Len() != 1 || rel.Arity() != 1 {
		t.Fatalf("rel = %+v", rel)
	}
	if inst.Dict.Name(rel.Row(0)[0]) != "a" {
		t.Errorf("binding = %s", inst.Dict.Name(rel.Row(0)[0]))
	}
}

func TestBCQAcyclicPathQuery(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "1", "2")
	db.Add("S", "2", "3")
	query := q(t, "R(x,y), S(y,z)")
	got, err := prepared(t, query).Bool(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("satisfiable query reported unsatisfiable")
	}
	// Break the join.
	db2 := cq.Database{}
	db2.Add("R", "1", "2")
	db2.Add("S", "9", "3")
	got, err = prepared(t, query).Bool(context.Background(), db2)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("unsatisfiable query reported satisfiable")
	}
}

func TestBCQTriangle(t *testing.T) {
	// Triangle query over a graph with/without a triangle.
	query := q(t, "E1(x,y), E2(y,z), E3(z,x)")
	with := cq.Database{}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"c", "d"}} {
		with.Add("E1", e[0], e[1])
		with.Add("E2", e[0], e[1])
		with.Add("E3", e[0], e[1])
	}
	got, err := prepared(t, query).Bool(context.Background(), with)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("triangle exists but BCQ said no")
	}
	without := cq.Database{}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		without.Add("E1", e[0], e[1])
		without.Add("E2", e[0], e[1])
		without.Add("E3", e[0], e[1])
	}
	got, err = prepared(t, query).Bool(context.Background(), without)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("no triangle but BCQ said yes")
	}
}

func TestCountMatchesNaive(t *testing.T) {
	// Path query counting: answers = paths of length 2.
	db := cq.Database{}
	db.Add("R", "1", "2")
	db.Add("R", "1", "3")
	db.Add("S", "2", "4")
	db.Add("S", "2", "5")
	db.Add("S", "3", "4")
	query := q(t, "R(x,y), S(y,z)")
	ghd, err := prepared(t, query).Count(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NaiveCount(query, db)
	if err != nil {
		t.Fatal(err)
	}
	if ghd != naive || ghd != 3 {
		t.Errorf("Count = %d, NaiveCount = %d, want 3", ghd, naive)
	}
}

func TestEnumerate(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "1", "2")
	db.Add("S", "2", "3")
	db.Add("S", "2", "4")
	rel, dict, err := NaiveEnumerate(q(t, "R(x,y), S(y,z)"), db)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rel.Len())
	}
	// Columns are sorted variable names: x, y, z.
	if rel.Cols[0] != "x" || rel.Cols[2] != "z" {
		t.Errorf("cols = %v", rel.Cols)
	}
	if dict.Name(rel.Row(0)[0]) != "1" {
		t.Errorf("first binding = %s", dict.Name(rel.Row(0)[0]))
	}
}

func TestSelfJoinQuery(t *testing.T) {
	// Self-joins: paths of length 2 in one relation.
	db := cq.Database{}
	db.Add("E", "a", "b")
	db.Add("E", "b", "c")
	query := q(t, "E(x,y), E(y,z)")
	got, err := prepared(t, query).Bool(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("self-join path should be satisfiable")
	}
	n, err := prepared(t, query).Count(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("count = %d, want 1", n)
	}
}

// randomInstance builds a random query shaped like a cycle or path with a
// random database; used for parity testing between engines.
func randomInstance(r *rand.Rand) (cq.Query, cq.Database) {
	nAtoms := 2 + r.Intn(4)
	cyclic := r.Intn(2) == 0
	var query cq.Query
	for i := 0; i < nAtoms; i++ {
		next := i + 1
		if cyclic && i == nAtoms-1 {
			next = 0
		}
		query.Atoms = append(query.Atoms, cq.Atom{
			Rel:  fmt.Sprintf("R%d", i),
			Args: []cq.Term{cq.V(fmt.Sprintf("v%d", i)), cq.V(fmt.Sprintf("v%d", next))},
		})
	}
	db := cq.Database{}
	domain := 3 + r.Intn(4)
	for i := 0; i < nAtoms; i++ {
		tuples := 2 + r.Intn(6)
		for t := 0; t < tuples; t++ {
			db.Add(fmt.Sprintf("R%d", i),
				fmt.Sprintf("c%d", r.Intn(domain)), fmt.Sprintf("c%d", r.Intn(domain)))
		}
	}
	return query, db
}

func TestGHDEngineMatchesNaiveRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		query, db := randomInstance(r)
		want, err := NaiveBCQ(query, db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := prepared(t, query).Bool(context.Background(), db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: BCQ=%v naive=%v\nq=%s\ndb=%v", trial, got, want, query, db)
		}
		wantN, err := NaiveCount(query, db)
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := prepared(t, query).Count(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		if gotN != wantN {
			t.Fatalf("trial %d: Count=%d naive=%d\nq=%s\ndb=%v", trial, gotN, wantN, query, db)
		}
	}
}

func TestExplicitDecompositionOption(t *testing.T) {
	query := q(t, "E1(x,y), E2(y,z), E3(z,x)")
	d, err := decomp.EvalDecomposition(query.Hypergraph())
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	db.Add("E1", "a", "b")
	db.Add("E2", "b", "c")
	db.Add("E3", "c", "a")
	plan, err := NewPlan(query, d)
	if err != nil {
		t.Fatal(err)
	}
	prep := &PreparedQuery{eng: Default(), plan: plan}
	got, err := prep.Bool(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("explicit decomposition evaluation failed")
	}
}

// TestFilterEnforcedBelowOnlyInsideItsBag: an atom is no filter at its node
// when a λ edge over its variables sits below the node in a bag that holds
// them, and stays one when that bag leaves one of them out — the child's key
// set then cannot carry the constraint up. Both decompositions are written
// out by hand: C(x,y,z) at the root, where A(x,y) is assigned, and a child
// covered by A and B(y,w) whose bag keeps x or drops it. Over a database in
// which A has no (x,y) of C, the query has no answer.
func TestFilterEnforcedBelowOnlyInsideItsBag(t *testing.T) {
	query := q(t, "C(x,y,z), A(x,y), B(y,w)")
	h := query.Hypergraph()
	set := func(names ...string) bitset.Set {
		ids := make([]int, len(names))
		for i, n := range names {
			ids[i] = h.VertexID(n)
		}
		return bitset.FromSlice(h.NV(), ids)
	}
	db := cq.Database{}
	db.Add("C", "1", "2", "3")
	db.Add("A", "9", "2")
	db.Add("B", "2", "5")
	for _, c := range []struct {
		child    bitset.Set
		filtered bool
	}{{set("x", "y", "w"), false}, {set("y", "w"), true}} {
		d := &decomp.GHD{Bags: []bitset.Set{set("x", "y", "z"), c.child}, Lambdas: [][]int{{0}, {1, 2}}, Parent: []int{-1, 0}}
		plan, err := NewPlan(query, d)
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Contains(plan.filters[0], 1); got != c.filtered {
			t.Errorf("child bag %v: A filters the root = %v, want %v", c.child, got, c.filtered)
		}
		prep := &PreparedQuery{eng: Default(), plan: plan}
		if n, err := prep.Count(context.Background(), db); err != nil || n != 0 {
			t.Errorf("child bag %v: Count = %d, %v; want 0", c.child, n, err)
		}
	}
}

func TestEmptyRelationMeansUnsat(t *testing.T) {
	query := q(t, "R(x,y), S(y,z)")
	db := cq.Database{}
	db.Add("R", "1", "2") // S empty
	got, err := prepared(t, query).Bool(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("query with empty relation should be unsatisfiable")
	}
	n, err := prepared(t, query).Count(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("count = %d, want 0", n)
	}
}

func TestGroundAtom(t *testing.T) {
	query := q(t, "Fact('a'), R(x,y)")
	db := cq.Database{}
	db.Add("R", "1", "2")
	// Fact absent: unsatisfiable.
	got, err := NaiveBCQ(query, db)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("missing ground atom should make query unsatisfiable")
	}
	db.Add("Fact", "a")
	got, err = NaiveBCQ(query, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("present ground atom should satisfy")
	}
}
