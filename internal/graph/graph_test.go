package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"d2cq/internal/bitset"
)

func TestBasicEdgeOps(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 2) // self-loop ignored
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge 0-1 missing")
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self-loop should be ignored")
	}
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) {
		t.Fatal("edge 0-1 present after removal")
	}
	if g.Degree(1) != 1 {
		t.Fatalf("Degree(1) = %d, want 1", g.Degree(1))
	}
}

func TestGridStructure(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	// 3×4 grid has 3*3 + 2*4 = 17 edges.
	if g.M() != 17 {
		t.Fatalf("M = %d, want 17", g.M())
	}
	// Corner degrees 2, edge degrees 3, interior degree 4.
	if g.Degree(GridVertex(0, 0, 4)) != 2 {
		t.Error("corner degree != 2")
	}
	if g.Degree(GridVertex(0, 1, 4)) != 3 {
		t.Error("border degree != 3")
	}
	if g.Degree(GridVertex(1, 1, 4)) != 4 {
		t.Error("interior degree != 4")
	}
	if !g.Connected() {
		t.Error("grid should be connected")
	}
}

func TestConstructions(t *testing.T) {
	if Path(5).M() != 4 {
		t.Error("path edges")
	}
	if Cycle(5).M() != 5 {
		t.Error("cycle edges")
	}
	if Complete(5).M() != 10 {
		t.Error("K5 edges")
	}
	if Star(4).M() != 4 || Star(4).Degree(0) != 4 {
		t.Error("star shape")
	}
	s := Subdivide(Cycle(4))
	if s.N() != 8 || s.M() != 8 {
		t.Errorf("subdivided C4: n=%d m=%d, want 8 8", s.N(), s.M())
	}
	if !s.Connected() {
		t.Error("subdivided cycle should be connected")
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	comps := g.Components()
	if len(comps) != 3 { // {0,1}, {2,3,4}, {5}
		t.Fatalf("components = %d, want 3", len(comps))
	}
	within := bitset.FromSlice(6, []int{0, 2, 3})
	comps = g.ComponentsWithin(within)
	if len(comps) != 2 {
		t.Fatalf("ComponentsWithin = %d comps, want 2", len(comps))
	}
}

func TestConnectedSubset(t *testing.T) {
	g := Path(5)
	if !g.ConnectedSubset(bitset.FromSlice(5, []int{1, 2, 3})) {
		t.Error("contiguous path segment should be connected")
	}
	if g.ConnectedSubset(bitset.FromSlice(5, []int{0, 2})) {
		t.Error("gap segment should be disconnected")
	}
	if !g.ConnectedSubset(bitset.New(5)) {
		t.Error("empty set should be connected")
	}
}

func TestTreewidthKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		tw   int
	}{
		{"path5", Path(5), 1},
		{"cycle5", Cycle(5), 2},
		{"K4", Complete(4), 3},
		{"K6", Complete(6), 5},
		{"grid2x2", Grid(2, 2), 2},
		{"grid3x3", Grid(3, 3), 3},
		{"grid4x4", Grid(4, 4), 4},
		{"grid3x5", Grid(3, 5), 3},
		{"star6", Star(6), 1},
		{"single", New(1), 0},
	}
	for _, c := range cases {
		w, order, err := TreewidthExact(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if w != c.tw {
			t.Errorf("%s: tw = %d, want %d", c.name, w, c.tw)
		}
		if got := WidthOfOrder(c.g, order); got != c.tw {
			t.Errorf("%s: order width = %d, want %d", c.name, got, c.tw)
		}
		td := DecompositionFromOrder(c.g, order)
		if err := td.Validate(c.g); err != nil {
			t.Errorf("%s: invalid decomposition: %v", c.name, err)
		}
		if td.Width() != c.tw {
			t.Errorf("%s: decomposition width = %d, want %d", c.name, td.Width(), c.tw)
		}
	}
}

func TestTreewidthBoundsConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 6 + r.Intn(8)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		exact, order, err := TreewidthExact(g)
		if err != nil {
			t.Fatal(err)
		}
		lbMMD := TreewidthLowerMMD(g)
		ubHeur, _ := TreewidthUpper(g)
		if lbMMD > exact {
			t.Errorf("MMD lower bound %d exceeds exact %d", lbMMD, exact)
		}
		if ubHeur < exact {
			t.Errorf("heuristic upper bound %d below exact %d", ubHeur, exact)
		}
		td := DecompositionFromOrder(g, order)
		if err := td.Validate(g); err != nil {
			t.Errorf("invalid exact decomposition: %v", err)
		}
		if w := Decomposition(g).Width(); w != exact {
			t.Errorf("Decomposition width %d, want exact %d", w, exact)
		}
	}
}

func TestDecompositionDisconnected(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	td := Decomposition(g)
	if err := td.Validate(g); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if td.Width() != 1 {
		t.Errorf("width = %d, want 1", td.Width())
	}
}

func TestValidateCatchesBadDecompositions(t *testing.T) {
	g := Path(3)
	// Missing edge coverage.
	td := &TreeDecomposition{
		Bags:   []bitset.Set{bitset.FromSlice(3, []int{0, 1}), bitset.FromSlice(3, []int{2})},
		Parent: []int{-1, 0},
	}
	if err := td.Validate(g); err == nil {
		t.Error("expected edge-coverage violation")
	}
	// Broken connectedness: vertex 0 appears in two non-adjacent nodes.
	td = &TreeDecomposition{
		Bags: []bitset.Set{
			bitset.FromSlice(3, []int{0, 1}),
			bitset.FromSlice(3, []int{1, 2}),
			bitset.FromSlice(3, []int{0}),
		},
		Parent: []int{-1, 0, 1},
	}
	if err := td.Validate(g); err == nil {
		t.Error("expected connectedness violation")
	}
}

func TestContractAndDelete(t *testing.T) {
	g := Cycle(4)
	h, vmap := ContractEdge(g, 0, 1)
	if h.N() != 3 || h.M() != 3 {
		t.Fatalf("C4/e should be C3: n=%d m=%d", h.N(), h.M())
	}
	if vmap[0] != vmap[1] {
		t.Error("contracted endpoints map to different vertices")
	}
	d, vmap := DeleteVertex(g, 0)
	if d.N() != 3 || d.M() != 2 {
		t.Fatalf("C4-v should be P3: n=%d m=%d", d.N(), d.M())
	}
	if vmap[0] != -1 {
		t.Error("deleted vertex should map to -1")
	}
}

func TestFindMinorPositive(t *testing.T) {
	// C3 is a minor of C5 (contract two edges).
	mm, err := FindMinor(Cycle(3), Cycle(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mm == nil {
		t.Fatal("C3 should be a minor of C5")
	}
	if err := mm.Validate(Cycle(3), Cycle(5)); err != nil {
		t.Fatal(err)
	}
	// 2×2 grid (C4) is a minor of the 3×3 grid.
	mm, err = FindMinor(Grid(2, 2), Grid(3, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mm == nil {
		t.Fatal("2×2 grid should be a minor of 3×3 grid")
	}
	if err := mm.Validate(Grid(2, 2), Grid(3, 3)); err != nil {
		t.Fatal(err)
	}
	// K4 is a minor of the 3×3 grid? No: grids are planar, K4 is planar and
	// actually K4 IS a minor of the 3×3 grid (contract around the centre).
	mm, err = FindMinor(Complete(4), Grid(3, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mm == nil {
		t.Fatal("K4 should be a minor of the 3×3 grid")
	}
	if err := mm.Validate(Complete(4), Grid(3, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestFindMinorNegative(t *testing.T) {
	// K5 is not planar, the grid is: no K5 minor in any grid.
	mm, err := FindMinor(Complete(5), Grid(3, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mm != nil {
		t.Fatal("K5 must not be a minor of a planar graph")
	}
	// C5 is not a minor of a tree.
	mm, err = FindMinor(Cycle(3), Star(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mm != nil {
		t.Fatal("C3 must not be a minor of a star")
	}
}

func TestFindMinorInSubdividedHost(t *testing.T) {
	// Subdivision preserves minors: C4 (= 2×2 grid) in subdivided 2×2 grid.
	host := Subdivide(Grid(2, 2))
	mm, err := FindMinor(Grid(2, 2), host, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mm == nil {
		t.Fatal("2×2 grid should be a minor of its subdivision")
	}
	if err := mm.Validate(Grid(2, 2), host); err != nil {
		t.Fatal(err)
	}
}

func TestExtendOnto(t *testing.T) {
	host := Grid(3, 3)
	mm, err := FindMinor(Grid(2, 2), host, nil)
	if err != nil || mm == nil {
		t.Fatal("setup failed")
	}
	if err := mm.ExtendOnto(host); err != nil {
		t.Fatal(err)
	}
	if !mm.Onto(host) {
		t.Fatal("map not onto after ExtendOnto")
	}
	if err := mm.Validate(Grid(2, 2), host); err != nil {
		t.Fatalf("map invalid after ExtendOnto: %v", err)
	}
}

func TestGridMinorInGrid(t *testing.T) {
	mm, err := GridMinorInGrid(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := mm.Validate(Grid(2, 2), Grid(3, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := GridMinorInGrid(5, 3, 3); err == nil {
		t.Fatal("expected error for oversized request")
	}
}

// Property: the width of a decomposition from any elimination order is an
// upper bound on the exact treewidth; MMD is a lower bound.
func TestQuickOrderWidthSandwich(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + int(seed%5+5)%5
		g := New(n)
		for i := 0; i < n+3; i++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		exact, _, err := TreewidthExact(g)
		if err != nil {
			return false
		}
		order := r.Perm(n)
		return WidthOfOrder(g, order) >= exact && TreewidthLowerMMD(g) <= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBFSOrderCoversAll(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(4, 5)
	order := bfsOrder(g)
	if len(order) != 6 {
		t.Fatalf("bfsOrder covers %d of 6", len(order))
	}
	seen := map[int]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatal("duplicate in bfs order")
		}
		seen[v] = true
	}
}

func TestWall(t *testing.T) {
	w := Wall(3, 4)
	if w.N() != 12 {
		t.Fatalf("N = %d", w.N())
	}
	// Subcubic.
	for v := 0; v < w.N(); v++ {
		if w.Degree(v) > 3 {
			t.Fatalf("wall vertex %d has degree %d > 3", v, w.Degree(v))
		}
	}
	if !w.Connected() {
		t.Error("wall should be connected")
	}
	// Walls of height ≥ 2 contain a C4... actually the smallest face of a
	// wall is a 6-cycle; check it is not a forest.
	if w.M() < w.N() {
		t.Error("wall should contain a cycle")
	}
	// Large-enough walls contain grid minors (here: 2×2 grid = C4).
	mm, err := FindMinor(Grid(2, 2), w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mm == nil {
		t.Error("3×4 wall should contain a 2×2 grid minor")
	}
}
