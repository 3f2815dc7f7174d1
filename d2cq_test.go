package d2cq

import (
	"context"
	"testing"
)

// The facade tests double as compilable documentation of the public API.

func TestFacadeQueryEvaluation(t *testing.T) {
	q, err := ParseQuery("Likes(x, y), Lives(y, 'paris')")
	if err != nil {
		t.Fatal(err)
	}
	db, err := ParseDatabase(`
Likes(ann, bob)
Lives(bob, paris)
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	prep, err := Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := prep.Bool(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("expected a match")
	}
	n, err := prep.Count(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("count = %d", n)
	}
	naive, err := NaiveBCQ(q, db)
	if err != nil || naive != ok {
		t.Error("baseline disagrees")
	}
}

func TestFacadeWidthAndJigsaws(t *testing.T) {
	j := Jigsaw(3, 3)
	if n, m, ok := IsJigsaw(j); !ok || n != 3 || m != 3 {
		t.Fatal("jigsaw construction/recognition broken")
	}
	res, err := GHW(j, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lower < 3 {
		t.Errorf("ghw(J3) lower bound %d, want ≥ 3", res.Lower)
	}
	if Acyclic(j) {
		t.Error("jigsaw should be cyclic")
	}
	d, err := GHDFromDualTD(j)
	if err != nil {
		t.Fatal(err)
	}
	if d.Width() > 4 {
		t.Errorf("Lemma 4.6 width %d exceeds tw(grid)+1", d.Width())
	}
	if fhw := FractionalCoverUpper(j, d); fhw <= 0 {
		t.Error("fhw upper should be positive")
	}
}

func TestFacadeDilutionRoundTrip(t *testing.T) {
	host := HypergraphFromGraph(Grid(3, 3)).Dual() // the 3×3 jigsaw
	seq, result, err := ExtractJigsaw(host, 2)
	if err != nil {
		t.Fatal(err)
	}
	if seq == nil {
		t.Fatal("no 2×2 jigsaw dilution found in J3")
	}
	if n, m, ok := IsJigsaw(result); !ok || n != 2 || m != 2 {
		t.Fatal("extraction result wrong")
	}
	ok, err := DecideDilution(host, result)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Decide disagrees with extraction")
	}
}

func TestFacadeReduction(t *testing.T) {
	h := Jigsaw(2, 3)
	seq, _, err := ReduceSequence(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 0 {
		t.Error("jigsaw is already reduced")
	}
	g := Grid(2, 2) // C4: contains a 2-clique
	inst, err := CliqueToJigsaw(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := inst.BCQ()
	if err != nil || !ok {
		t.Error("grid has an edge, 2-clique instance must be satisfiable")
	}
}

func TestFacadeSemanticWidth(t *testing.T) {
	q, err := ParseQuery("E(a,b), E(b,c), E(c,a), E(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := SemanticGHW(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Upper != 2 {
		t.Errorf("semantic ghw = %v, want 2", res)
	}
	if !Equivalent(q, Core(q)) {
		t.Error("core must stay equivalent")
	}
}

func TestFacadePreparedQuery(t *testing.T) {
	q, err := ParseQuery("E1(x,y), E2(y,z), E3(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	db, err := ParseDatabase(`
E1(a, b)
E2(b, c)
E3(c, a)
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := NewEngine(WithMaxWidth(2), WithDecompCache(16))
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the same prepared plan repeatedly: the decomposition is
	// computed exactly once (the ISSUE's acceptance criterion).
	for i := 0; i < 3; i++ {
		ok, err := prep.Bool(ctx, db)
		if err != nil || !ok {
			t.Fatalf("Bool: ok=%v err=%v", ok, err)
		}
	}
	n, err := prep.Count(ctx, db)
	if err != nil || n != 1 {
		t.Fatalf("Count = %d (err=%v), want 1", n, err)
	}
	var streamed int
	err = prep.Enumerate(ctx, db, func(s Solution) bool {
		streamed++
		if s.Get("x") != "a" {
			t.Errorf("x = %q, want a", s.Get("x"))
		}
		return true
	})
	if err != nil || streamed != 1 {
		t.Fatalf("Enumerate streamed %d (err=%v), want 1", streamed, err)
	}
	if st := eng.Stats(); st.DecompsComputed != 1 {
		t.Errorf("decompositions computed = %d, want 1", st.DecompsComputed)
	}
	if prep.Explain() == "" {
		t.Error("empty plan explanation")
	}
}

func TestFacadeIncrementalUpdates(t *testing.T) {
	q, err := ParseQuery("Follows(a,b), Follows(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	db, err := ParseDatabase(`
Follows(ann, bob)
Follows(bob, cat)
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := NewEngine()
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	n, err := bound.Count(ctx)
	if err != nil || n != 1 {
		t.Fatalf("Count = %d (err=%v), want 1", n, err)
	}
	// Apply a delta through the bound query: the old snapshot stays live and
	// the new one reflects the change.
	next, err := bound.Update(ctx, NewDelta().Add("Follows", "cat", "dan"))
	if err != nil {
		t.Fatal(err)
	}
	n2, err := next.Count(ctx)
	if err != nil || n2 != 2 {
		t.Fatalf("Count after insert = %d (err=%v), want 2", n2, err)
	}
	old, err := bound.Count(ctx)
	if err != nil || old != 1 {
		t.Fatalf("old snapshot Count = %d (err=%v), want 1", old, err)
	}
	// Share one applied snapshot across bound queries via Apply + Rebind.
	cdb2, err := next.Database().Apply(ctx, NewDelta().Remove("Follows", "ann", "bob"))
	if err != nil {
		t.Fatal(err)
	}
	final, err := next.Rebind(ctx, cdb2)
	if err != nil {
		t.Fatal(err)
	}
	n3, err := final.Count(ctx)
	if err != nil || n3 != 1 { // bob-cat-dan remains
		t.Fatalf("Count after delete = %d (err=%v), want 1", n3, err)
	}
}
