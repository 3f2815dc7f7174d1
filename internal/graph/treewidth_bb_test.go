package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"d2cq/internal/bitset"
)

// TestTreewidthBBMatchesDP holds the branch and bound, and Decomposition's
// width, to the subset DP: on random graphs of 5–12 vertices, and of 13–20,
// the sizes at which Decomposition once ran the DP itself.
func TestTreewidthBBMatchesDP(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	large, maxN := 12, 20
	if testing.Short() {
		large, maxN = 4, 16
	}
	for trial := 0; trial < 25+large; trial++ {
		var n int
		if trial < 25 {
			n = 5 + r.Intn(8)
		} else {
			n = 13 + r.Intn(maxN-12)
		}
		g := New(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		exact, _, err := TreewidthExact(g)
		if err != nil {
			t.Fatal(err)
		}
		bb, order, err := TreewidthBB(g, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if bb != exact {
			t.Fatalf("trial %d: BB=%d exact=%d\n%s", trial, bb, exact, g)
		}
		if got := WidthOfOrder(g, order); got != exact {
			t.Fatalf("trial %d: order width %d != %d", trial, got, exact)
		}
		if got := Decomposition(g).Width(); got != exact {
			t.Fatalf("trial %d: Decomposition width %d != %d\n%s", trial, got, exact, g)
		}
	}
}

func TestTreewidthBBKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		tw   int
	}{
		{"grid4x4", Grid(4, 4), 4},
		{"K7", Complete(7), 6},
		{"cycle9", Cycle(9), 2},
		{"wall3x6", Wall(3, 6), 3},
	}
	for _, c := range cases {
		bb, order, err := TreewidthBB(c.g, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if bb != c.tw {
			t.Errorf("%s: BB = %d, want %d", c.name, bb, c.tw)
		}
		td := DecompositionFromOrder(c.g, order)
		if err := td.Validate(c.g); err != nil {
			t.Errorf("%s: invalid decomposition: %v", c.name, err)
		}
	}
}

func TestTreewidthBBBeyondDPLimit(t *testing.T) {
	// A 26-vertex partial 2-tree (outside the DP's n ≤ 24): BB must still
	// find tw ≤ 2 and the heuristic-seeded bound must be optimal.
	g := New(26)
	for v := 2; v < 26; v++ {
		g.AddEdge(v, v-1)
		g.AddEdge(v, v-2)
	}
	bb, order, err := TreewidthBB(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bb != 2 {
		t.Errorf("tw = %d, want 2", bb)
	}
	if got := WidthOfOrder(g, order); got != 2 {
		t.Errorf("order width = %d", got)
	}
}

func TestTreewidthBBBudget(t *testing.T) {
	// A dense-ish random graph with a tiny budget returns ErrBBBudget but
	// still a sound upper bound.
	r := rand.New(rand.NewSource(2))
	g := New(18)
	for i := 0; i < 60; i++ {
		g.AddEdge(r.Intn(18), r.Intn(18))
	}
	ub, order, err := TreewidthBB(g, 10)
	if err != ErrBBBudget {
		// A lucky simplicial cascade may finish within budget; that is fine
		// as long as the answer is sound.
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := WidthOfOrder(g, order); got > ub {
		t.Errorf("returned order has width %d > reported %d", got, ub)
	}
}

// The reference search below is the clone-per-child branch and bound that
// TreewidthBB replaced, kept verbatim apart from names: every child gets a
// fresh copy of the filled graph, and the MMD bound is taken on an induced
// subgraph. TestTreewidthBBMatchesReference holds the in-place search to
// the same (width, order, err) at every budget.

type refBBState struct {
	h     *Graph     // filled graph
	alive bitset.Set // vertices not yet eliminated
	order []int      // elimination prefix
	width int        // max live degree at elimination so far
}

type refBBSearch struct {
	bestWidth int
	bestOrder []int
	seen      map[string]int // alive-set key → smallest prefix width seen
	budget    int
}

func refTreewidthBB(g *Graph, budget int) (int, []int, error) {
	n := g.N()
	if n == 0 {
		return -1, nil, nil
	}
	if budget <= 0 {
		budget = 2_000_000
	}
	ub, order := TreewidthUpper(g)
	lb := refLowerMMD(g)
	if lb >= ub {
		return ub, order, nil
	}
	s := &refBBSearch{bestWidth: ub, bestOrder: order, seen: map[string]int{}, budget: budget}
	full := bitset.New(n)
	for v := 0; v < n; v++ {
		full.Add(v)
	}
	err := s.dfs(refBBState{h: g.Clone(), alive: full, width: 0})
	if err != nil {
		return s.bestWidth, s.bestOrder, err
	}
	return s.bestWidth, s.bestOrder, nil
}

func (s *refBBSearch) dfs(f refBBState) error {
	s.budget--
	if s.budget <= 0 {
		return ErrBBBudget
	}
	if f.width >= s.bestWidth {
		return nil // cannot improve
	}
	if f.alive.Len() <= f.width+1 {
		// Remaining vertices fit in one final bag: tw of this order = width.
		s.bestWidth = f.width
		s.bestOrder = append(append([]int(nil), f.order...), f.alive.Slice()...)
		return nil
	}
	key := f.alive.Key()
	if prev, ok := s.seen[key]; ok && prev <= f.width {
		return nil
	}
	s.seen[key] = f.width
	// Lower bound on the remaining subgraph.
	sub, _ := refInducedSubgraph(f.h, f.alive)
	if rem := refLowerMMD(sub); max(rem, f.width) >= s.bestWidth {
		return nil
	}
	cands := f.alive.Slice()
	// Simplicial rule: a vertex whose live neighbourhood is already a clique
	// can be eliminated first w.l.o.g.
	for _, v := range cands {
		if refIsSimplicial(f.h, f.alive, v) {
			return s.dfs(refEliminateBB(f, v))
		}
	}
	refSortByLiveDegree(f.h, f.alive, cands)
	for _, v := range cands {
		if err := s.dfs(refEliminateBB(f, v)); err != nil {
			return err
		}
	}
	return nil
}

// refEliminateBB eliminates v: its live neighbourhood is filled into a
// clique and v leaves the alive set.
func refEliminateBB(f refBBState, v int) refBBState {
	nbrs := f.h.Neighbors(v).Intersect(f.alive)
	width := f.width
	if d := nbrs.Len(); d > width {
		width = d
	}
	h2 := f.h.Clone()
	sl := nbrs.Slice()
	for i := 0; i < len(sl); i++ {
		for j := i + 1; j < len(sl); j++ {
			h2.AddEdge(sl[i], sl[j])
		}
	}
	alive2 := f.alive.Clone()
	alive2.Remove(v)
	return refBBState{
		h:     h2,
		alive: alive2,
		order: append(append([]int(nil), f.order...), v),
		width: width,
	}
}

func refIsSimplicial(h *Graph, alive bitset.Set, v int) bool {
	sl := h.Neighbors(v).Intersect(alive).Slice()
	for i := 0; i < len(sl); i++ {
		for j := i + 1; j < len(sl); j++ {
			if !h.HasEdge(sl[i], sl[j]) {
				return false
			}
		}
	}
	return true
}

func refSortByLiveDegree(h *Graph, alive bitset.Set, vs []int) {
	deg := func(v int) int { return h.Neighbors(v).IntersectionLen(alive) }
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && deg(vs[j]) < deg(vs[j-1]); j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// refInducedSubgraph returns the subgraph of g induced by keep, along with
// the map from new vertex ids to old ids.
func refInducedSubgraph(g *Graph, keep bitset.Set) (*Graph, []int) {
	old := keep.Slice()
	idx := make(map[int]int, len(old))
	for i, v := range old {
		idx[v] = i
	}
	sub := New(len(old))
	for i, v := range old {
		g.adj[v].ForEach(func(u int) bool {
			if j, ok := idx[u]; ok && i < j {
				sub.AddEdge(i, j)
			}
			return true
		})
	}
	return sub, old
}

// refLowerMMD is the MMD lower bound on a clone of g.
func refLowerMMD(g *Graph) int {
	h := g.Clone()
	alive := bitset.New(g.n)
	for v := 0; v < g.n; v++ {
		alive.Add(v)
	}
	lb := 0
	for !alive.Empty() {
		best, bestDeg := -1, 1<<30
		alive.ForEach(func(v int) bool {
			d := h.adj[v].IntersectionLen(alive)
			if d < bestDeg {
				best, bestDeg = v, d
			}
			return true
		})
		if bestDeg > lb {
			lb = bestDeg
		}
		alive.Remove(best)
	}
	return lb
}

func TestTreewidthBBMatchesReference(t *testing.T) {
	type instance struct {
		name string
		g    *Graph
	}
	var graphs []instance
	r := rand.New(rand.NewSource(36))
	for trial := 0; trial < 16; trial++ {
		// Sparse graphs (n to 2n edges) tend to finish within the larger
		// budgets; dense ones (2n to 4n) never do, and on some of them the
		// search improves on the heuristic order before it runs out.
		n := 25 + r.Intn(16)
		m := n * (1 + trial%2)
		g := New(n)
		for i := 0; i < m+r.Intn(m); i++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		graphs = append(graphs, instance{fmt.Sprintf("rand%d-n%d-m%d", trial, n, g.M()), g})
	}
	// Random k-trees with a few extra edges: the MMD bound sits at most one
	// below the heuristic bound, so its pruning decides where the budget
	// runs out.
	for trial := 0; trial < 6; trial++ {
		n, k := 25+r.Intn(16), 3+r.Intn(3)
		g := New(n)
		bags := [][]int{{}}
		for v := 0; v <= k; v++ {
			for u := 0; u < v; u++ {
				g.AddEdge(u, v)
			}
			bags[0] = append(bags[0], v)
		}
		for v := k + 1; v < n; v++ {
			bag, next := bags[r.Intn(len(bags))], []int{v}
			for _, i := range r.Perm(k + 1)[:k] {
				g.AddEdge(v, bag[i])
				next = append(next, bag[i])
			}
			bags = append(bags, next)
		}
		for i := 2 + r.Intn(6); i > 0; i-- {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		graphs = append(graphs, instance{fmt.Sprintf("ktree%d-n%d-k%d", trial, n, k), g})
	}
	budgets := []int{10, 37, 100, 420, 1_000, 3_300, 10_000, 50_000}
	if testing.Short() {
		budgets = []int{10, 100, 1_000, 10_000}
	}
	check := func(name string, g *Graph, budget int) {
		t.Helper()
		wantW, wantOrder, wantErr := refTreewidthBB(g, budget)
		gotW, gotOrder, gotErr := TreewidthBB(g, budget)
		if gotW != wantW || gotErr != wantErr || !slices.Equal(gotOrder, wantOrder) {
			t.Errorf("%s budget %d: got (%d, %v, %v), reference (%d, %v, %v)",
				name, budget, gotW, gotOrder, gotErr, wantW, wantOrder, wantErr)
		}
	}
	for _, in := range graphs {
		for _, b := range budgets {
			check(in.name, in.g, b)
		}
	}
	// The primal graph of the dual of Jigsaw(5,5) is the 5×5 grid; at
	// Decomposition's budget its search runs out.
	check("jigsaw5x5-dual", Grid(5, 5), 500_000)
}

// BenchmarkTreewidthBB runs the branch and bound at Decomposition's budget on
// the primal graphs of two jigsaw duals, the grids of GHW's Lemma 4.6 bound:
// the 4×5 grid (20 vertices), which it decomposes optimally within the
// budget, and the 5×5 grid of the census's largest jigsaw, on which the
// budget runs out.
func BenchmarkTreewidthBB(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *Graph
		want error
	}{
		{"jigsaw4x5-dual", Grid(4, 5), nil},
		{"jigsaw5x5-dual", Grid(5, 5), ErrBBBudget},
	} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				if _, _, err := TreewidthBB(c.g, 500_000); err != c.want {
					b.Fatalf("err = %v, want %v", err, c.want)
				}
			}
		})
	}
}
