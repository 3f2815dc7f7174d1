package decomp

import (
	"errors"
	"fmt"

	"d2cq/internal/bitset"
	"d2cq/internal/hypergraph"
)

// ErrNoCover is returned when a hypergraph has an isolated vertex, which no
// edge-cover-based decomposition can cover.
var ErrNoCover = errors.New("decomp: hypergraph has an isolated vertex")

// ErrSearchBudget is returned when a width search exhausts its node budget
// before reaching an answer; the width is then unknown at that k.
var ErrSearchBudget = errors.New("decomp: width search budget exhausted")

// DefaultSearchBudget bounds the number of (separator, bag) candidates a
// single width search may try. Hypertree-width checking is NP-hard; the
// budget keeps worst-case instances from hanging instead of failing fast.
const DefaultSearchBudget = 3_000_000

// HypertreeWidthLE decides whether hw(h) ≤ k using a det-k-decomp-style
// backtracking search over edge separators (Gottlob & Samer) with
// memoization on (component, connector) pairs. On success it returns a
// witnessing GHD of width ≤ k.
func HypertreeWidthLE(h *hypergraph.Hypergraph, k int) (*GHD, bool, error) {
	return HypertreeWidthLEBudget(h, k, DefaultSearchBudget)
}

// HypertreeWidthLEBudget is HypertreeWidthLE with an explicit candidate
// budget; it returns ErrSearchBudget when the budget runs out undecided.
func HypertreeWidthLEBudget(h *hypergraph.Hypergraph, k, budget int) (*GHD, bool, error) {
	return search(&hwSearcher{h: h, k: k, budget: budget})
}

// search runs s over all of its hypergraph's edges and flattens the witness.
func search(s *hwSearcher) (*GHD, bool, error) {
	h := s.h
	for v := 0; v < h.NV(); v++ {
		if h.Degree(v) == 0 {
			return nil, false, ErrNoCover
		}
	}
	if h.NE() == 0 {
		return &GHD{}, true, nil
	}
	if s.k < 1 {
		return nil, false, nil
	}
	s.memo = map[string]*ghdNode{}
	node, ok := s.solve(h.AllEdges(), bitset.New(h.NV()))
	if s.err != nil && !ok {
		return nil, false, s.err
	}
	if !ok {
		return nil, false, nil
	}
	return flatten(node), true, nil
}

// MaxGeneralizedBagClasses caps the number of vertex-equivalence classes per
// candidate bag in the generalized (exact ghw) search; beyond it the search
// refuses (exponential candidate space).
const MaxGeneralizedBagClasses = 16

// GeneralizedWidthLE decides whether ghw(h) ≤ k by the same component
// search as HypertreeWidthLE, but additionally enumerating bags that are
// proper subsets of ∪λ (grouped into vertex-equivalence classes — vertices
// with identical membership across the component's edges are interchangeable,
// so bags are unions of whole classes w.l.o.g.). Complete but exponential;
// intended for small hypergraphs. Returns an error when a candidate bag has
// more than MaxGeneralizedBagClasses classes.
func GeneralizedWidthLE(h *hypergraph.Hypergraph, k int) (*GHD, bool, error) {
	return search(&hwSearcher{h: h, k: k, generalized: true, budget: DefaultSearchBudget})
}

// connectedWidthLE is HypertreeWidthLE restricted to covers that are joins:
// it tries only λ for which CoverConnected holds.
func connectedWidthLE(h *hypergraph.Hypergraph, k int) (*GHD, bool, error) {
	return search(&hwSearcher{h: h, k: k, connected: true, budget: DefaultSearchBudget})
}

// CoverConnected reports whether the edges of lambda form a connected set:
// any two are linked by a chain of edges in lambda, each sharing a vertex
// with the next. A bag whose cover is connected is a join of the cover's
// relations; any other bag is a cross product of two or more of them.
func CoverConnected(h *hypergraph.Hypergraph, lambda []int) bool {
	if len(lambda) <= 1 {
		return true
	}
	reached := h.EdgeSet(lambda[0]).Clone()
	joined := make([]bool, len(lambda))
	joined[0] = true
	for n, grew := 1, true; grew; {
		grew = false
		for i, e := range lambda {
			if !joined[i] && h.EdgeSet(e).Intersects(reached) {
				joined[i], grew = true, true
				reached.UnionWith(h.EdgeSet(e))
				if n++; n == len(lambda) {
					return true
				}
			}
		}
	}
	return false
}

// HypertreeWidth computes hw(h) exactly by iterating HypertreeWidthLE for
// k = 1, 2, ... up to maxK (≤ 0 means up to the number of edges). The second
// return is the witnessing GHD. If the true width exceeds maxK it returns
// (nil, maxK+1, false, nil).
func HypertreeWidth(h *hypergraph.Hypergraph, maxK int) (*GHD, int, bool, error) {
	if maxK <= 0 {
		maxK = h.NE()
	}
	for k := 1; k <= maxK; k++ {
		d, ok, err := HypertreeWidthLE(h, k)
		if err != nil {
			return nil, 0, false, err
		}
		if ok {
			return d, k, true, nil
		}
	}
	return nil, maxK + 1, false, nil
}

type ghdNode struct {
	bag      bitset.Set
	lambda   []int
	children []*ghdNode
}

type hwSearcher struct {
	h           *hypergraph.Hypergraph
	k           int
	generalized bool                // enumerate subset bags (exact ghw) instead of χ = ∪λ∩scope
	connected   bool                // try only λ whose edges form a connected set
	memo        map[string]*ghdNode // nil entry = known failure
	budget      int                 // remaining (λ, bag) candidates; ≤ 0 aborts
	err         error
}

// solve searches for a decomposition of the edge component comp whose root
// bag covers the connector vertex set conn.
func (s *hwSearcher) solve(comp bitset.Set, conn bitset.Set) (*ghdNode, bool) {
	key := comp.Key() + "|" + conn.Key()
	if n, seen := s.memo[key]; seen {
		return n, n != nil
	}
	// Vertices spanned by the component.
	span := bitset.New(s.h.NV())
	comp.ForEach(func(e int) bool {
		span.UnionWith(s.h.EdgeSet(e))
		return true
	})
	scope := span.Union(conn)

	var result *ghdNode
	s.enumLambdas(conn, func(lambda []int, union bitset.Set) bool {
		if s.err != nil {
			return false
		}
		if s.connected && !CoverConnected(s.h, lambda) {
			return true
		}
		base := union.Intersect(scope)
		if !conn.SubsetOf(base) {
			return true
		}
		if !s.generalized {
			if n, ok := s.tryBag(comp, lambda, base); ok {
				result = n
				return false
			}
			return true
		}
		stop := true
		s.enumBags(comp, conn, base, func(chi bitset.Set) bool {
			if n, ok := s.tryBag(comp, lambda, chi); ok {
				result = n
				stop = false
				return false
			}
			return true
		})
		return stop
	})
	s.memo[key] = result
	return result, result != nil
}

// tryBag attempts to root the component's decomposition at a node with the
// given bag and cover, recursing into the [χ]-components.
func (s *hwSearcher) tryBag(comp bitset.Set, lambda []int, chi bitset.Set) (*ghdNode, bool) {
	s.budget--
	if s.budget <= 0 {
		if s.err == nil {
			s.err = ErrSearchBudget
		}
		return nil, false
	}
	remaining := bitset.New(s.h.NE())
	progress := false
	comp.ForEach(func(e int) bool {
		if s.h.EdgeSet(e).SubsetOf(chi) {
			progress = true
		} else {
			remaining.Add(e)
		}
		return true
	})
	if remaining.Empty() {
		return &ghdNode{bag: chi.Clone(), lambda: append([]int(nil), lambda...)}, true
	}
	comps := s.splitComponents(remaining, chi)
	if !progress && len(comps) == 1 {
		return nil, false // no progress: same component would recurse forever
	}
	children := make([]*ghdNode, 0, len(comps))
	for _, sub := range comps {
		subConn := bitset.New(s.h.NV())
		sub.ForEach(func(e int) bool {
			subConn.UnionWith(s.h.EdgeSet(e).Intersect(chi))
			return true
		})
		child, good := s.solve(sub, subConn)
		if !good {
			return nil, false
		}
		children = append(children, child)
	}
	return &ghdNode{bag: chi.Clone(), lambda: append([]int(nil), lambda...), children: children}, true
}

// enumBags enumerates candidate generalized bags χ with conn ⊆ χ ⊆ base.
// Vertices of base\conn with identical membership patterns across the
// component's edges are interchangeable, so w.l.o.g. bags are conn plus
// unions of whole equivalence classes. Enumeration is largest-first so the
// hw-style bag is tried first. fn returns false to stop.
func (s *hwSearcher) enumBags(comp, conn, base bitset.Set, fn func(chi bitset.Set) bool) {
	free := base.Diff(conn)
	// Group free vertices by their comp-edge membership pattern.
	classes := map[string]bitset.Set{}
	free.ForEach(func(v int) bool {
		pat := bitset.New(s.h.NE())
		comp.ForEach(func(e int) bool {
			if s.h.EdgeSet(e).Has(v) {
				pat.Add(e)
			}
			return true
		})
		k := pat.Key()
		if classes[k] == nil {
			classes[k] = bitset.New(s.h.NV())
		}
		classes[k].Add(v)
		return true
	})
	classList := make([]bitset.Set, 0, len(classes))
	for _, c := range classes {
		classList = append(classList, c)
	}
	nc := len(classList)
	if nc > MaxGeneralizedBagClasses {
		if s.err == nil {
			s.err = fmt.Errorf("ghw search: %d bag classes exceeds cap %d (%s)", nc, MaxGeneralizedBagClasses, widthSummary(s.h))
		}
		return
	}
	// Enumerate subsets of classes, biggest cardinality masks first so the
	// full bag (the hw candidate) is tried first.
	total := 1 << uint(nc)
	masks := make([]int, total)
	for i := range masks {
		masks[i] = i
	}
	popcount := func(x int) int {
		c := 0
		for x != 0 {
			x &= x - 1
			c++
		}
		return c
	}
	// Simple counting sort by descending popcount.
	buckets := make([][]int, nc+1)
	for _, m := range masks {
		p := popcount(m)
		buckets[p] = append(buckets[p], m)
	}
	for p := nc; p >= 0; p-- {
		for _, m := range buckets[p] {
			chi := conn.Clone()
			for i := 0; i < nc; i++ {
				if m&(1<<uint(i)) != 0 {
					chi.UnionWith(classList[i])
				}
			}
			if !fn(chi) {
				return
			}
		}
	}
}

// enumLambdas enumerates all edge subsets λ with 1 ≤ |λ| ≤ k whose union
// covers conn, invoking fn with the subset and its union. fn returns false
// to stop the enumeration.
func (s *hwSearcher) enumLambdas(conn bitset.Set, fn func(lambda []int, union bitset.Set) bool) {
	ne := s.h.NE()
	lambda := make([]int, 0, s.k)
	var rec func(start int, union bitset.Set) bool
	rec = func(start int, union bitset.Set) bool {
		if len(lambda) > 0 && conn.SubsetOf(union) {
			if !fn(lambda, union) {
				return false
			}
		}
		if len(lambda) == s.k {
			return true
		}
		for e := start; e < ne; e++ {
			// Skip edges adding nothing new.
			if s.h.EdgeSet(e).SubsetOf(union) {
				continue
			}
			lambda = append(lambda, e)
			next := union.Union(s.h.EdgeSet(e))
			if !rec(e+1, next) {
				return false
			}
			lambda = lambda[:len(lambda)-1]
		}
		return true
	}
	rec(0, bitset.New(s.h.NV()))
}

// splitComponents partitions the remaining edges into [χ]-components: edges
// are connected when they share a vertex outside χ.
func (s *hwSearcher) splitComponents(remaining bitset.Set, chi bitset.Set) []bitset.Set {
	ids := remaining.Slice()
	parent := make(map[int]int, len(ids))
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, e := range ids {
		parent[e] = e
	}
	// Group by shared outside-χ vertices.
	owner := map[int]int{} // vertex -> first edge seen containing it
	for _, e := range ids {
		out := s.h.EdgeSet(e).Diff(chi)
		out.ForEach(func(v int) bool {
			if first, ok := owner[v]; ok {
				union(first, e)
			} else {
				owner[v] = e
			}
			return true
		})
	}
	groups := map[int]bitset.Set{}
	for _, e := range ids {
		r := find(e)
		if groups[r] == nil {
			groups[r] = bitset.New(s.h.NE())
		}
		groups[r].Add(e)
	}
	out := make([]bitset.Set, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	return out
}

// flatten converts the search tree into the flat GHD representation,
// duplicating shared memoized subtrees so the result is a proper tree.
func flatten(root *ghdNode) *GHD {
	d := &GHD{}
	var emit func(n *ghdNode, parent int)
	emit = func(n *ghdNode, parent int) {
		id := len(d.Bags)
		d.Bags = append(d.Bags, n.bag.Clone())
		d.Lambdas = append(d.Lambdas, append([]int(nil), n.lambda...))
		d.Parent = append(d.Parent, parent)
		for _, c := range n.children {
			emit(c, id)
		}
	}
	emit(root, -1)
	return d
}

// widthSummary is a helper for error messages in higher-level functions.
func widthSummary(h *hypergraph.Hypergraph) string {
	return fmt.Sprintf("|V|=%d |E|=%d", h.NV(), h.NE())
}
