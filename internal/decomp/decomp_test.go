package decomp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"d2cq/internal/bitset"
	"d2cq/internal/graph"
	"d2cq/internal/hypergraph"
)

func triangleHG() *hypergraph.Hypergraph {
	h := hypergraph.New()
	h.AddEdge("e1", "x", "y")
	h.AddEdge("e2", "y", "z")
	h.AddEdge("e3", "z", "x")
	return h
}

func pathHG(n int) *hypergraph.Hypergraph {
	h := hypergraph.New()
	for i := 0; i < n; i++ {
		h.AddEdge("e"+itoa(i), "v"+itoa(i), "v"+itoa(i+1))
	}
	return h
}

func jigsawHG(n, m int) *hypergraph.Hypergraph {
	return hypergraph.FromGraph(graph.Grid(n, m)).Dual()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf []byte
	for i > 0 {
		buf = append([]byte{byte('0' + i%10)}, buf...)
		i /= 10
	}
	return string(buf)
}

func TestAcyclicPositive(t *testing.T) {
	cases := []*hypergraph.Hypergraph{pathHG(1), pathHG(5)}
	// A star of atoms sharing one variable.
	star := hypergraph.New()
	star.AddEdge("a", "c", "l1")
	star.AddEdge("b", "c", "l2")
	star.AddEdge("d", "c", "l3")
	cases = append(cases, star)
	// Classic acyclic 3-ary chain.
	chain := hypergraph.New()
	chain.AddEdge("r", "x", "y", "z")
	chain.AddEdge("s", "y", "z", "w")
	chain.AddEdge("t", "w", "u")
	cases = append(cases, chain)
	for i, h := range cases {
		if !Acyclic(h) {
			t.Errorf("case %d should be acyclic", i)
		}
		jt, err := JoinTree(h)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := jt.Validate(h); err != nil {
			t.Errorf("case %d: invalid join tree: %v", i, err)
		}
		if jt.Width() != 1 {
			t.Errorf("case %d: join tree width %d", i, jt.Width())
		}
	}
}

func TestAcyclicNegative(t *testing.T) {
	if Acyclic(triangleHG()) {
		t.Error("triangle should be cyclic")
	}
	if Acyclic(jigsawHG(2, 2)) {
		t.Error("2×2 jigsaw should be cyclic")
	}
	if _, err := JoinTree(triangleHG()); err == nil {
		t.Error("JoinTree must fail on cyclic input")
	}
}

func TestJoinTreeDisconnected(t *testing.T) {
	h := hypergraph.New()
	h.AddEdge("e1", "a", "b")
	h.AddEdge("e2", "x", "y")
	jt, err := JoinTree(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := jt.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestJoinTreeIsolatedVertexRejected(t *testing.T) {
	h := hypergraph.New()
	h.AddEdge("e1", "a", "b")
	h.AddVertex("lonely")
	if _, err := JoinTree(h); err == nil {
		t.Error("expected isolated-vertex error")
	}
}

func TestEdgeCoverNumber(t *testing.T) {
	h := triangleHG()
	all := h.AllVertices()
	if got := EdgeCoverNumber(h, all); got != 2 {
		t.Errorf("triangle cover = %d, want 2", got)
	}
	single := bitset.New(h.NV())
	single.Add(h.VertexID("x"))
	if got := EdgeCoverNumber(h, single); got != 1 {
		t.Errorf("single vertex cover = %d, want 1", got)
	}
	if got := EdgeCoverNumber(h, bitset.New(h.NV())); got != 0 {
		t.Errorf("empty cover = %d, want 0", got)
	}
	// Uncoverable vertex.
	h.AddVertex("lonely")
	s := bitset.New(h.NV())
	s.Add(h.VertexID("lonely"))
	if got := EdgeCoverNumber(h, s); got != -1 {
		t.Errorf("uncoverable = %d, want -1", got)
	}
}

func TestFractionalCoverNumber(t *testing.T) {
	h := triangleHG()
	got := FractionalCoverNumber(h, h.AllVertices())
	if math.Abs(got-1.5) > 1e-6 {
		t.Errorf("triangle ρ* = %v, want 1.5", got)
	}
	if got := FractionalCoverNumber(h, bitset.New(h.NV())); got != 0 {
		t.Errorf("empty ρ* = %v, want 0", got)
	}
}

func TestHypertreeWidthKnown(t *testing.T) {
	cases := []struct {
		name string
		h    *hypergraph.Hypergraph
		hw   int
	}{
		{"path", pathHG(4), 1},
		{"triangle", triangleHG(), 2},
		{"jigsaw2x2", jigsawHG(2, 2), 2},
	}
	for _, c := range cases {
		d, k, ok, err := HypertreeWidth(c.h, 0)
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", c.name, ok, err)
		}
		if k != c.hw {
			t.Errorf("%s: hw = %d, want %d", c.name, k, c.hw)
		}
		if err := d.Validate(c.h); err != nil {
			t.Errorf("%s: invalid decomposition: %v", c.name, err)
		}
		if d.Width() != k {
			t.Errorf("%s: witness width %d != %d", c.name, d.Width(), k)
		}
	}
}

func TestHypertreeWidthLERejects(t *testing.T) {
	if _, ok, err := HypertreeWidthLE(triangleHG(), 1); err != nil || ok {
		t.Errorf("triangle should not have hw ≤ 1 (ok=%v err=%v)", ok, err)
	}
	if _, ok, err := HypertreeWidthLE(jigsawHG(3, 3), 2); err != nil || ok {
		t.Errorf("3×3 jigsaw should not have hw ≤ 2 (ok=%v err=%v)", ok, err)
	}
}

func TestGeneralizedWidthAtMostHW(t *testing.T) {
	// ghw ≤ hw: wherever the hw search succeeds, the generalized search must
	// succeed too.
	for _, h := range []*hypergraph.Hypergraph{pathHG(3), triangleHG(), jigsawHG(2, 2)} {
		_, k, ok, err := HypertreeWidth(h, 0)
		if !ok || err != nil {
			t.Fatal("setup failed")
		}
		d, ok, err := GeneralizedWidthLE(h, k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("generalized search failed at hw=%d", k)
		}
		if err := d.Validate(h); err != nil {
			t.Errorf("invalid generalized decomposition: %v", err)
		}
	}
}

func TestGHDFromDualTDLemma46(t *testing.T) {
	// Lemma 4.6: ghw(H) ≤ tw(H^d) + 1, witnessed constructively.
	for _, tc := range []struct {
		name  string
		h     *hypergraph.Hypergraph
		maxTW int // known tw of the dual
	}{
		{"jigsaw2x2", jigsawHG(2, 2), 2}, // dual = 2×2 grid, tw 2
		{"jigsaw3x3", jigsawHG(3, 3), 3}, // dual = 3×3 grid, tw 3
		{"triangle", triangleHG(), 2},    // dual of triangle = triangle
	} {
		d, err := GHDFromDualTD(tc.h)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := d.Validate(tc.h); err != nil {
			t.Fatalf("%s: invalid GHD: %v", tc.name, err)
		}
		if d.Width() > tc.maxTW+1 {
			t.Errorf("%s: width %d > tw+1 = %d", tc.name, d.Width(), tc.maxTW+1)
		}
	}
}

func TestBalancedSeparators(t *testing.T) {
	// The paper (§4.2): the n×n-jigsaw cannot be separated into balanced
	// components by fewer than n edges, hence ghw ≥ n.
	j3 := jigsawHG(3, 3)
	if HasBalancedSeparator(j3, 2) {
		t.Error("3×3 jigsaw should have no balanced separator of 2 edges")
	}
	if !HasBalancedSeparator(j3, 3) {
		t.Error("3×3 jigsaw should have a balanced separator of 3 edges")
	}
	if lb := BalancedSeparatorLB(j3, 5); lb != 3 {
		t.Errorf("BalancedSeparatorLB = %d, want 3", lb)
	}
	j2 := jigsawHG(2, 2)
	if lb := BalancedSeparatorLB(j2, 5); lb != 2 {
		t.Errorf("2×2 jigsaw LB = %d, want 2", lb)
	}
}

func TestGHWTriangle(t *testing.T) {
	res, err := GHW(triangleHG(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Upper != 2 {
		t.Errorf("triangle ghw = %v, want exact 2", res)
	}
	if err := res.Decomp.Validate(res.Reduced); err != nil {
		t.Errorf("invalid witness: %v", err)
	}
}

func TestGHWAcyclic(t *testing.T) {
	res, err := GHW(pathHG(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Upper != 1 {
		t.Errorf("path ghw = %v, want exact 1", res)
	}
}

func TestGHWJigsaw(t *testing.T) {
	// ghw(J_2) = 2.
	res, err := GHW(jigsawHG(2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Upper != 2 {
		t.Errorf("J2 ghw = %v, want exact 2", res)
	}
	// ghw(J_3) ∈ [3, 4]: ≥ 3 by balanced separators, ≤ 4 by Lemma 4.6.
	res3, err := GHW(jigsawHG(3, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Lower < 3 || res3.Upper > 4 {
		t.Errorf("J3 ghw = %v, want within [3,4]", res3)
	}
	if err := res3.Decomp.Validate(res3.Reduced); err != nil {
		t.Errorf("invalid witness: %v", err)
	}
}

func TestGHWWithIsolatedVertexAndDupTypes(t *testing.T) {
	h := hypergraph.New()
	h.AddEdge("e1", "x", "y", "p", "q") // p, q, x share a vertex type
	h.AddEdge("e2", "y", "z")
	h.AddVertex("lonely")
	res, err := GHW(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Upper != 1 {
		t.Errorf("acyclic-with-noise ghw = %v, want exact 1", res)
	}
}

func TestGHWReductionInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := graph.New(6)
		for i := 0; i < 9; i++ {
			g.AddEdge(r.Intn(6), r.Intn(6))
		}
		h := hypergraph.FromGraph(g).Dual() // degree ≤ 2 hypergraph
		if h.NE() == 0 {
			continue
		}
		a, err := GHW(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GHW(h.Reduce(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Upper != b.Upper || a.Lower != b.Lower {
			t.Errorf("trial %d: ghw differs between h and reduce(h): %v vs %v", trial, a, b)
		}
	}
}

func TestFHWUpper(t *testing.T) {
	h := triangleHG()
	res, err := GHW(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	fhw := FHWUpper(res.Reduced, res.Decomp)
	// fhw(triangle) = 1.5 via the fractional cover of the full bag.
	if fhw < 1.5-1e-6 || fhw > 2+1e-6 {
		t.Errorf("fhw upper = %v, want within [1.5, 2]", fhw)
	}
	if iw := IntegralWidth(res.Reduced, res.Decomp); iw != 2 {
		t.Errorf("integral width = %d, want 2", iw)
	}
}

func TestEvalDecomposition(t *testing.T) {
	// Acyclic: join tree of width 1.
	d, err := EvalDecomposition(context.Background(), pathHG(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Width() != 1 {
		t.Errorf("width = %d, want 1", d.Width())
	}
	// Cyclic: still valid, width = hw.
	d, err = EvalDecomposition(context.Background(), jigsawHG(2, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(jigsawHG(2, 2)); err != nil {
		t.Fatal(err)
	}
	if d.Width() != 2 {
		t.Errorf("width = %d, want 2", d.Width())
	}
}

func TestGHDValidateCatchesErrors(t *testing.T) {
	h := triangleHG()
	// Bag not covered by λ.
	bad := &GHD{
		Bags:    []bitset.Set{h.AllVertices()},
		Lambdas: [][]int{{0}},
		Parent:  []int{-1},
	}
	if err := bad.Validate(h); err == nil {
		t.Error("expected cover violation")
	}
	// Edge not inside any bag.
	bag := bitset.New(h.NV())
	bag.Add(0)
	bad = &GHD{
		Bags:    []bitset.Set{bag},
		Lambdas: [][]int{{0}},
		Parent:  []int{-1},
	}
	if err := bad.Validate(h); err == nil {
		t.Error("expected edge-coverage violation")
	}
}

func TestGHWManyRandomDegree2(t *testing.T) {
	// ghw bounds must always sandwich and witnesses must validate on a
	// spread of random degree-2 hypergraphs (duals of random graphs).
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		n := 4 + r.Intn(4)
		g := graph.New(n)
		for i := 0; i < n+r.Intn(n); i++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		h := hypergraph.FromGraph(g).Dual()
		if h.NE() == 0 {
			continue
		}
		if d := h.MaxDegree(); d > 2 {
			t.Fatalf("dual construction produced degree %d", d)
		}
		res, err := GHW(h, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Lower > res.Upper {
			t.Errorf("trial %d: lower %d > upper %d", trial, res.Lower, res.Upper)
		}
		if res.Decomp != nil && res.Reduced.NE() > 0 {
			if err := res.Decomp.Validate(res.Reduced); err != nil {
				t.Errorf("trial %d: invalid witness: %v", trial, err)
			}
		}
	}
}
