package graph

import (
	"errors"
	"fmt"
	"math/bits"

	"d2cq/internal/bitset"
)

// TreeDecomposition is a tree decomposition of a graph (or, reusing the same
// representation, of a hypergraph's vertex set). Node i has bag Bags[i];
// Parent[i] is the parent node index and -1 for the root.
type TreeDecomposition struct {
	Bags   []bitset.Set
	Parent []int
}

// Width returns the width of the decomposition (max bag size - 1).
func (td *TreeDecomposition) Width() int {
	w := 0
	for _, b := range td.Bags {
		if l := b.Len(); l > w {
			w = l
		}
	}
	return w - 1
}

// Nodes returns the number of tree nodes.
func (td *TreeDecomposition) Nodes() int { return len(td.Bags) }

// Children returns, for each node, the list of its children.
func (td *TreeDecomposition) Children() [][]int {
	ch := make([][]int, len(td.Bags))
	for i, p := range td.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], i)
		}
	}
	return ch
}

// Validate checks the three tree-decomposition conditions against g:
// every vertex occurs in a bag, every edge is contained in some bag, and the
// occurrence set of every vertex is connected in the tree.
func (td *TreeDecomposition) Validate(g *Graph) error {
	if len(td.Bags) == 0 {
		if g.n == 0 {
			return nil
		}
		return errors.New("treedecomp: no bags")
	}
	if len(td.Parent) != len(td.Bags) {
		return errors.New("treedecomp: parent/bag length mismatch")
	}
	roots := 0
	for i, p := range td.Parent {
		if p == -1 {
			roots++
		} else if p < 0 || p >= len(td.Bags) || p == i {
			return fmt.Errorf("treedecomp: bad parent %d of node %d", p, i)
		}
	}
	if roots != 1 {
		return fmt.Errorf("treedecomp: %d roots, want 1", roots)
	}
	// Vertex coverage.
	covered := bitset.New(g.n)
	for _, b := range td.Bags {
		covered.UnionWith(b)
	}
	for v := 0; v < g.n; v++ {
		if !covered.Has(v) {
			return fmt.Errorf("treedecomp: vertex %d not covered", v)
		}
	}
	// Edge coverage.
	for _, e := range g.Edges() {
		ok := false
		for _, b := range td.Bags {
			if b.Has(e[0]) && b.Has(e[1]) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("treedecomp: edge %d-%d not covered", e[0], e[1])
		}
	}
	return td.validateConnectedness(g.n)
}

// validateConnectedness checks that for each vertex the set of tree nodes
// whose bag contains it induces a connected subtree.
func (td *TreeDecomposition) validateConnectedness(n int) error {
	children := td.Children()
	for v := 0; v < n; v++ {
		// Count occurrence nodes and check they form one component in the tree.
		occ := make([]bool, len(td.Bags))
		total := 0
		first := -1
		for i, b := range td.Bags {
			if b.Has(v) {
				occ[i] = true
				total++
				if first < 0 {
					first = i
				}
			}
		}
		if total == 0 {
			continue
		}
		// BFS in the tree restricted to occurrence nodes.
		seen := make([]bool, len(td.Bags))
		stack := []int{first}
		seen[first] = true
		found := 1
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var nbrs []int
			if td.Parent[x] >= 0 {
				nbrs = append(nbrs, td.Parent[x])
			}
			nbrs = append(nbrs, children[x]...)
			for _, y := range nbrs {
				if occ[y] && !seen[y] {
					seen[y] = true
					found++
					stack = append(stack, y)
				}
			}
		}
		if found != total {
			return fmt.Errorf("treedecomp: occurrences of vertex %d not connected", v)
		}
	}
	return nil
}

// --- elimination orderings ---------------------------------------------------

// WidthOfOrder simulates the elimination of the given vertex order on g and
// returns the width of the induced tree decomposition.
func WidthOfOrder(g *Graph, order []int) int {
	h := g.Clone()
	alive := bitset.New(g.n)
	for v := 0; v < g.n; v++ {
		alive.Add(v)
	}
	width := 0
	for _, v := range order {
		nbrs := h.adj[v].Intersect(alive)
		if l := nbrs.Len(); l > width {
			width = l
		}
		// Make the live neighbourhood a clique.
		sl := nbrs.Slice()
		for i := 0; i < len(sl); i++ {
			for j := i + 1; j < len(sl); j++ {
				h.AddEdge(sl[i], sl[j])
			}
		}
		alive.Remove(v)
	}
	return width
}

// DecompositionFromOrder builds a tree decomposition from an elimination
// order using the standard fill-in construction. Node i corresponds to
// order[i]; its bag is order[i] plus its live neighbourhood at elimination
// time; its parent is the node of the earliest-eliminated bag member after it.
func DecompositionFromOrder(g *Graph, order []int) *TreeDecomposition {
	n := g.n
	if n == 0 {
		return &TreeDecomposition{}
	}
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	h := g.Clone()
	alive := bitset.New(n)
	for v := 0; v < n; v++ {
		alive.Add(v)
	}
	bags := make([]bitset.Set, n)
	parent := make([]int, n)
	for i, v := range order {
		nbrs := h.adj[v].Intersect(alive)
		nbrs.Remove(v)
		bag := nbrs.Clone()
		bag.Add(v)
		bags[i] = bag
		// Parent: node of the earliest-eliminated live neighbour.
		best := -1
		nbrs.ForEach(func(u int) bool {
			if best == -1 || pos[u] < pos[best] {
				best = u
			}
			return true
		})
		if best == -1 {
			if i == n-1 {
				parent[i] = -1
			} else {
				parent[i] = i + 1 // isolated vertex: chain to the next node
			}
		} else {
			parent[i] = pos[best]
		}
		sl := nbrs.Slice()
		for a := 0; a < len(sl); a++ {
			for b := a + 1; b < len(sl); b++ {
				h.AddEdge(sl[a], sl[b])
			}
		}
		alive.Remove(v)
	}
	parent[n-1] = -1
	return &TreeDecomposition{Bags: bags, Parent: parent}
}

// MinDegreeOrder returns the greedy minimum-degree elimination order.
func MinDegreeOrder(g *Graph) []int {
	h := g.Clone()
	alive := bitset.New(g.n)
	for v := 0; v < g.n; v++ {
		alive.Add(v)
	}
	order := make([]int, 0, g.n)
	for len(order) < g.n {
		best, bestDeg := -1, 1<<30
		alive.ForEach(func(v int) bool {
			d := h.adj[v].IntersectionLen(alive)
			if d < bestDeg {
				best, bestDeg = v, d
			}
			return true
		})
		nbrs := h.adj[best].Intersect(alive).Slice()
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				h.AddEdge(nbrs[i], nbrs[j])
			}
		}
		alive.Remove(best)
		order = append(order, best)
	}
	return order
}

// MinFillOrder returns the greedy minimum-fill-in elimination order.
func MinFillOrder(g *Graph) []int {
	h := g.Clone()
	alive := bitset.New(g.n)
	for v := 0; v < g.n; v++ {
		alive.Add(v)
	}
	order := make([]int, 0, g.n)
	for len(order) < g.n {
		best, bestFill := -1, 1<<30
		alive.ForEach(func(v int) bool {
			nbrs := h.adj[v].Intersect(alive).Slice()
			fill := 0
			for i := 0; i < len(nbrs); i++ {
				for j := i + 1; j < len(nbrs); j++ {
					if !h.HasEdge(nbrs[i], nbrs[j]) {
						fill++
					}
				}
			}
			if fill < bestFill {
				best, bestFill = v, fill
			}
			return true
		})
		nbrs := h.adj[best].Intersect(alive).Slice()
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				h.AddEdge(nbrs[i], nbrs[j])
			}
		}
		alive.Remove(best)
		order = append(order, best)
	}
	return order
}

// TreewidthUpper returns a heuristic upper bound for tw(g) (the better of the
// min-degree and min-fill orders) together with the achieving order.
func TreewidthUpper(g *Graph) (int, []int) {
	if g.n == 0 {
		return -1, nil
	}
	o1 := MinDegreeOrder(g)
	w1 := WidthOfOrder(g, o1)
	o2 := MinFillOrder(g)
	w2 := WidthOfOrder(g, o2)
	if w1 <= w2 {
		return w1, o1
	}
	return w2, o2
}

// TreewidthLowerMMD returns the MMD (maximum minimum degree) lower bound:
// repeatedly delete a minimum-degree vertex; the maximum of the minimum
// degrees observed is a lower bound for treewidth.
func TreewidthLowerMMD(g *Graph) int {
	return lowerMMD(g, fullSet(g.n), bitset.New(g.n), make([]int, g.n))
}

// MaxExactTreewidthN bounds the instance size accepted by TreewidthExact:
// the dynamic program uses Θ(2^n) memory.
const MaxExactTreewidthN = 24

// TreewidthExact computes tw(g) exactly by the Held–Karp-style dynamic
// program over vertex subsets (Bodlaender et al.), and returns an optimal
// elimination order. It requires g.N() ≤ MaxExactTreewidthN.
func TreewidthExact(g *Graph) (int, []int, error) {
	n := g.n
	if n == 0 {
		return -1, nil, nil
	}
	if n > MaxExactTreewidthN {
		return 0, nil, fmt.Errorf("treewidth: exact DP limited to n ≤ %d, got %d", MaxExactTreewidthN, n)
	}
	full := uint32(1)<<uint(n) - 1
	adj := make([]uint32, n)
	for v := range adj {
		adj[v] = uint32(g.adj[v][0])
	}
	// q(S, v) = #vertices outside S∪{v} reachable from v via paths whose
	// internal vertices lie in S.
	q := func(S uint32, v int) int8 {
		reach, nbrs := uint32(1)<<uint(v), adj[v]
		for next := nbrs & S; next != 0; next = nbrs & S &^ reach {
			for ; next != 0; next &= next - 1 {
				x := bits.TrailingZeros32(next)
				reach |= 1 << uint(x)
				nbrs |= adj[x]
			}
		}
		return int8(bits.OnesCount32(nbrs &^ S &^ reach))
	}
	tw := make([]int8, full+1)
	for S := uint32(1); S <= full; S++ {
		best := int8(127)
		for rest := S; rest != 0; rest &= rest - 1 {
			v := bits.TrailingZeros32(rest)
			Sv := S &^ (1 << uint(v))
			if cand := max(tw[Sv], q(Sv, v)); cand < best {
				best = cand
			}
		}
		tw[S] = best
	}
	// Recover an optimal elimination order: the argmin vertex of S is the
	// last-eliminated vertex of S.
	order := make([]int, n)
	S := full
	for i := n - 1; i >= 0; i-- {
		chosen := -1
		for rest := S; rest != 0; rest &= rest - 1 {
			v := bits.TrailingZeros32(rest)
			Sv := S &^ (1 << uint(v))
			if max(tw[Sv], q(Sv, v)) == tw[S] {
				chosen = v
				break
			}
		}
		order[i] = chosen
		S &^= 1 << uint(chosen)
	}
	return int(tw[full]), order, nil
}

// Treewidth returns lower and upper bounds on tw(g). When the graph is small
// enough for the exact DP — or the branch-and-bound search finishes within
// its default budget — the two coincide.
func Treewidth(g *Graph) (lb, ub int) {
	if g.n == 0 {
		return -1, -1
	}
	if g.n <= MaxExactTreewidthN {
		w, _, err := TreewidthExact(g)
		if err == nil {
			return w, w
		}
	}
	if w, _, err := TreewidthBB(g, 500_000); err == nil {
		return w, w
	}
	ub, _ = TreewidthUpper(g)
	lb = TreewidthLowerMMD(g)
	if lb > ub {
		lb = ub
	}
	return lb, ub
}

// Decomposition returns a valid tree decomposition of g of width
// TreewidthUpper (exact when the graph is small enough for the exact DP).
func Decomposition(g *Graph) *TreeDecomposition {
	if g.n == 0 {
		return &TreeDecomposition{}
	}
	var order []int
	if g.n <= MaxExactTreewidthN {
		if _, o, err := TreewidthExact(g); err == nil {
			order = o
		}
	}
	if order == nil {
		// Beyond the DP limit: branch and bound within a budget, falling
		// back to its heuristic-seeded order either way (sound upper bound).
		_, order, _ = TreewidthBB(g, 500_000)
	}
	return DecompositionFromOrder(g, order)
}
