package decomp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

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

// ctxCheckEvery is how many candidates a search tries between two looks at
// its context: often enough to stop within milliseconds of the context's
// end, rarely enough that looking costs nothing.
const ctxCheckEvery = 1024

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
	return search(&hwSearcher{ctx: context.Background(), h: h, k: k, budget: budget})
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
	if s.ended != nil {
		return nil, false, s.ended
	}
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
	return search(&hwSearcher{ctx: context.Background(), h: h, k: k, generalized: true, budget: DefaultSearchBudget})
}

// connectedWidthLE is HypertreeWidthLE restricted to covers that are joins:
// it tries only λ for which CoverConnected holds. It stops with ctx's error
// once ctx ends.
func connectedWidthLE(ctx context.Context, h *hypergraph.Hypergraph, k int) (*GHD, bool, error) {
	return search(&hwSearcher{ctx: ctx, h: h, k: k, connected: true, budget: DefaultSearchBudget})
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
	ctx         context.Context
	h           *hypergraph.Hypergraph
	k           int
	generalized bool                // enumerate subset bags (exact ghw) instead of χ = ∪λ∩scope
	connected   bool                // try only λ whose edges form a connected set
	memo        map[string]*ghdNode // nil entry = known failure
	budget      int                 // remaining (λ, bag) candidates; ≤ 0 aborts
	err         error
	ticks       int   // candidates tried, counted for the periodic look at ctx
	ended       error // ctx's error once a look has seen it; the search stops

	// Scratch, reused across calls. Each is dead again before the call
	// that fills it recurses, so nested calls may share it.
	key       []byte     // solve: the (component, connector) memo key
	remaining bitset.Set // tryBag: component edges χ does not cover
	uf        []int      // splitComponents: union-find parent per edge
	index     []int      // splitComponents: component index per root edge
	first     []int      // splitComponents: first edge seen at each vertex, or -1
}

// solve searches for a decomposition of the edge component comp whose root
// bag covers the connector vertex set conn.
func (s *hwSearcher) solve(comp bitset.Set, conn bitset.Set) (*ghdNode, bool) {
	// comp and conn always have the capacities NE and NV, so their words
	// side by side identify the pair.
	s.key = s.key[:0]
	for _, w := range comp {
		s.key = binary.LittleEndian.AppendUint64(s.key, w)
	}
	for _, w := range conn {
		s.key = binary.LittleEndian.AppendUint64(s.key, w)
	}
	if n, seen := s.memo[string(s.key)]; seen {
		return n, n != nil
	}
	key := string(s.key)
	// Vertices spanned by the component.
	scope := conn.Clone()
	comp.ForEach(func(e int) bool {
		scope.UnionWith(s.h.EdgeSet(e))
		return true
	})

	var result *ghdNode
	base := bitset.New(s.h.NV())
	s.enumLambdas(conn, func(lambda []int, union bitset.Set) bool {
		if s.err != nil || s.canceled() {
			return false
		}
		if s.connected && !CoverConnected(s.h, lambda) {
			return true
		}
		copy(base, union)
		base.IntersectWith(scope)
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
	if s.canceled() {
		return nil, false
	}
	if s.remaining == nil {
		s.remaining = bitset.New(s.h.NE())
	}
	remaining := s.remaining
	remaining.Clear()
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
	words := bitset.Words(s.h.NV())
	slab := make([]uint64, len(comps)*words)
	for i, sub := range comps {
		subConn := bitset.Set(slab[i*words : (i+1)*words : (i+1)*words])
		sub.ForEach(func(e int) bool {
			for j, w := range s.h.EdgeSet(e) {
				subConn[j] |= w & chi[j]
			}
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

// canceled counts one candidate and, every ctxCheckEvery candidates, looks
// at the search's context. It reports whether the context has been seen to
// end; from then on the search unwinds and returns the context's error.
func (s *hwSearcher) canceled() bool {
	if s.ticks++; s.ticks%ctxCheckEvery == 0 && s.ended == nil {
		s.ended = s.ctx.Err()
	}
	return s.ended != nil
}

// enumBags enumerates candidate generalized bags χ with conn ⊆ χ ⊆ base.
// Vertices of base\conn with identical membership patterns across the
// component's edges are interchangeable, so w.l.o.g. bags are conn plus
// unions of whole equivalence classes, listed in order of their smallest
// vertex. Enumeration is largest-first so the hw-style bag is tried first.
// fn returns false to stop; it must not retain chi.
func (s *hwSearcher) enumBags(comp, conn, base bitset.Set, fn func(chi bitset.Set) bool) {
	free := base.Diff(conn)
	// Group free vertices by their comp-edge membership pattern.
	var patterns, classList []bitset.Set
	pat := bitset.New(s.h.NE())
	free.ForEach(func(v int) bool {
		pat.Clear()
		comp.ForEach(func(e int) bool {
			if s.h.EdgeSet(e).Has(v) {
				pat.Add(e)
			}
			return true
		})
		for i, p := range patterns {
			if p.Equal(pat) {
				classList[i].Add(v)
				return true
			}
		}
		patterns = append(patterns, pat.Clone())
		classList = append(classList, bitset.FromSlice(s.h.NV(), []int{v}))
		return true
	})
	nc := len(classList)
	if nc > MaxGeneralizedBagClasses {
		if s.err == nil {
			s.err = fmt.Errorf("ghw search: %d bag classes exceeds cap %d (%s)", nc, MaxGeneralizedBagClasses, widthSummary(s.h))
		}
		return
	}
	// Enumerate subsets of classes, biggest cardinality masks first so the
	// full bag (the hw candidate) is tried first: a counting sort by
	// descending popcount.
	buckets := make([][]int, nc+1)
	for m := 0; m < 1<<uint(nc); m++ {
		p := bits.OnesCount(uint(m))
		buckets[p] = append(buckets[p], m)
	}
	chi := bitset.New(s.h.NV())
	for p := nc; p >= 0; p-- {
		for _, m := range buckets[p] {
			copy(chi, conn)
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
// to stop the enumeration; it must not retain lambda or union.
func (s *hwSearcher) enumLambdas(conn bitset.Set, fn func(lambda []int, union bitset.Set) bool) {
	ne, words := s.h.NE(), bitset.Words(s.h.NV())
	lambda := make([]int, 0, s.k)
	// unions[d] is the union of the first d edges of lambda.
	slab := make([]uint64, (s.k+1)*words)
	unions := make([]bitset.Set, s.k+1)
	for d := range unions {
		unions[d] = slab[d*words : (d+1)*words : (d+1)*words]
	}
	var rec func(start int) bool
	rec = func(start int) bool {
		d := len(lambda)
		union := unions[d]
		if d > 0 && conn.SubsetOf(union) {
			if !fn(lambda, union) {
				return false
			}
		}
		if d == s.k {
			return true
		}
		next := unions[d+1]
		for e := start; e < ne; e++ {
			// Skip edges adding nothing new.
			if s.h.EdgeSet(e).SubsetOf(union) {
				continue
			}
			lambda = append(lambda, e)
			copy(next, union)
			next.UnionWith(s.h.EdgeSet(e))
			if !rec(e + 1) {
				return false
			}
			lambda = lambda[:len(lambda)-1]
		}
		return true
	}
	rec(0)
}

// splitComponents partitions the remaining edges into [χ]-components: edges
// are connected when they share a vertex outside χ. Components come in order
// of their smallest edge.
func (s *hwSearcher) splitComponents(remaining bitset.Set, chi bitset.Set) []bitset.Set {
	ne, nv := s.h.NE(), s.h.NV()
	if len(s.uf) < ne {
		s.uf, s.index = make([]int, ne), make([]int, ne)
	}
	if len(s.first) < nv {
		s.first = make([]int, nv)
	}
	uf, index, first := s.uf, s.index, s.first
	for v := range first {
		first[v] = -1
	}
	// A union-find over edges whose root is always its set's smallest edge.
	find := func(x int) int {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	roots := 0
	remaining.ForEach(func(e int) bool {
		uf[e] = e
		for i, w := range s.h.EdgeSet(e) {
			for w &^= chi[i]; w != 0; w &= w - 1 {
				v := i*64 + bits.TrailingZeros64(w)
				if first[v] < 0 {
					first[v] = e
				} else if a, b := find(first[v]), find(e); a != b {
					uf[max(a, b)] = min(a, b)
					roots--
				}
			}
		}
		roots++
		return true
	})
	// Roots precede their members, so each root opens the next component.
	words := bitset.Words(ne)
	slab := make([]uint64, roots*words)
	out := make([]bitset.Set, 0, roots)
	remaining.ForEach(func(e int) bool {
		r := find(e)
		if r == e {
			index[e] = len(out)
			k := len(out) * words
			out = append(out, bitset.Set(slab[k:k+words:k+words]))
		}
		out[index[r]].Add(e)
		return true
	})
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
