package decomp

import (
	"context"
	"errors"
	"fmt"

	"d2cq/internal/bitset"
	"d2cq/internal/graph"
	"d2cq/internal/hypergraph"
)

// GHWResult reports what is known about the generalized hypertree width of a
// hypergraph: bounds, exactness, and a witnessing decomposition of the
// reduced hypergraph achieving Upper.
type GHWResult struct {
	Lower   int
	Upper   int
	Exact   bool
	Decomp  *GHD                   // witness for Upper, over Reduced
	Reduced *hypergraph.Hypergraph // the reduced hypergraph the bounds refer to
}

func (r GHWResult) String() string {
	if r.Exact {
		return fmt.Sprintf("ghw=%d (exact)", r.Upper)
	}
	return fmt.Sprintf("ghw∈[%d,%d]", r.Lower, r.Upper)
}

// GHDFromDualTD implements the construction of Lemma 4.6: given a tree
// decomposition of the dual hypergraph H^d with width k, it builds a GHD of
// H of width ≤ k+1 by taking λ_u = D_u and B_u = ⋃λ_u. The input must have
// no isolated vertices (reduce first).
func GHDFromDualTD(h *hypergraph.Hypergraph) (*GHD, error) {
	for v := 0; v < h.NV(); v++ {
		if h.Degree(v) == 0 {
			return nil, ErrNoCover
		}
	}
	if h.NE() == 0 {
		return &GHD{}, nil
	}
	dual := h.Dual()
	// A tree decomposition of a hypergraph is a tree decomposition of its
	// primal graph; for degree ≤ 2 the dual's primal is (close to) the dual
	// graph itself.
	td := graph.Decomposition(dual.Primal())
	d := &GHD{
		Bags:    make([]bitset.Set, len(td.Bags)),
		Lambdas: make([][]int, len(td.Bags)),
		Parent:  append([]int(nil), td.Parent...),
	}
	for u, dbag := range td.Bags {
		// Dual vertices are exactly the edges of h, with matching ids.
		lambda := dbag.Slice()
		bag := bitset.New(h.NV())
		for _, e := range lambda {
			bag.UnionWith(h.EdgeSet(e))
		}
		d.Bags[u] = bag
		d.Lambdas[u] = lambda
	}
	return d, nil
}

// HasBalancedSeparator reports whether some set λ of at most k edges
// separates h into balanced parts: every [⋃λ]-component of the remaining
// edges has weight at most half the total edge count. By Adler, Gottlob &
// Grohe (the argument cited in §4.2 of the paper), ghw(h) ≤ k implies such a
// separator exists, so its absence is a ghw lower bound.
func HasBalancedSeparator(h *hypergraph.Hypergraph, k int) bool {
	ne := h.NE()
	if ne <= 1 {
		return true
	}
	half := ne / 2
	found := false
	s := &hwSearcher{h: h, k: k}
	remaining := bitset.New(ne)
	s.enumLambdas(bitset.New(h.NV()), func(lambda []int, union bitset.Set) bool {
		remaining.Clear()
		for e := 0; e < ne; e++ {
			if !h.EdgeSet(e).SubsetOf(union) {
				remaining.Add(e)
			}
		}
		comps := s.splitComponents(remaining, union)
		for _, c := range comps {
			if c.Len() > half {
				return true // unbalanced, keep searching
			}
		}
		found = true
		return false
	})
	return found
}

// BalancedSeparatorLB returns a lower bound on ghw(h): the smallest s ≤ maxK
// such that h has a balanced separator of s edges. If none exists up to maxK
// the bound maxK+1 is returned.
func BalancedSeparatorLB(h *hypergraph.Hypergraph, maxK int) int {
	for s := 1; s <= maxK; s++ {
		if HasBalancedSeparator(h, s) {
			return s
		}
	}
	return maxK + 1
}

// GHWOptions tunes GHW.
type GHWOptions struct {
	// MaxWidth caps the widths tried (0 = number of edges).
	MaxWidth int
	// SkipExactSearch disables the exponential generalized-bag search; the
	// result then carries bounds only (unless they already coincide).
	SkipExactSearch bool
	// ExactSearchEdgeLimit skips the exact generalized search for
	// hypergraphs with more edges than this (0 = 12).
	ExactSearchEdgeLimit int
	// HWEdgeLimit skips the hypertree-width upper-bound search for
	// hypergraphs with more edges than this (0 = 16); Lemma 4.6 then
	// supplies the only upper bound.
	HWEdgeLimit int
	// Budget bounds each width search (0 = DefaultSearchBudget).
	Budget int
	// SkipSeparatorLB disables the balanced-separator lower bound (used by
	// ablation benchmarks; the lower bound then stays at the acyclicity
	// threshold 2).
	SkipSeparatorLB bool
}

// GHW computes the generalized hypertree width of h as exactly as it can:
//
//  1. reduce h (reduction preserves ghw; width of a hypergraph with isolated
//     vertices is understood as the width of its reduced form),
//  2. upper bounds: hypertree width (det-k-decomp search) and, via
//     Lemma 4.6, tw(H^d)+1,
//  3. lower bounds: α-acyclicity and balanced edge separators (§4.2),
//  4. if the bounds disagree, run the complete generalized-bag search for
//     each intermediate width (small hypergraphs only).
//
// Every search behind it runs in a fixed order, so the result, witness
// included, is the same on every call; a search that runs out of budget
// runs out at the same point. In a witness from the width searches the
// children of a node come in order of their smallest edge id.
func GHW(h *hypergraph.Hypergraph, opts *GHWOptions) (GHWResult, error) {
	var o GHWOptions
	if opts != nil {
		o = *opts
	}
	if o.ExactSearchEdgeLimit == 0 {
		o.ExactSearchEdgeLimit = 12
	}
	if o.HWEdgeLimit == 0 {
		o.HWEdgeLimit = 16
	}
	if o.Budget == 0 {
		o.Budget = DefaultSearchBudget
	}
	r := h.Reduce()
	res := GHWResult{Reduced: r}
	if r.NE() == 0 {
		res.Exact = true
		res.Decomp = &GHD{}
		return res, nil
	}
	if Acyclic(r) {
		jt, err := JoinTree(r)
		if err != nil {
			return res, err
		}
		res.Lower, res.Upper, res.Exact, res.Decomp = 1, 1, true, jt
		return res, nil
	}
	maxW := o.MaxWidth
	if maxW <= 0 {
		maxW = r.NE()
	}
	// Upper bound 1: Lemma 4.6 (cheap: exact treewidth of the dual for
	// small duals, heuristic beyond).
	dualGHD, err := GHDFromDualTD(r)
	if err != nil {
		return res, err
	}
	ub := dualGHD.Width()
	best := dualGHD
	// Lower bound: not acyclic, so ≥ 2; strengthen with balanced separators.
	lb := 2
	if !o.SkipSeparatorLB && r.NE() <= 30 {
		if s := BalancedSeparatorLB(r, min(ub-1, 6)); s > lb {
			lb = s
		}
	}
	if lb > ub {
		lb = ub
	}
	// Upper bound 2: hypertree width. hw ≥ ghw ≥ lb, so start at lb — the
	// guaranteed-failure widths below it are the expensive part of the
	// search.
	if r.NE() <= o.HWEdgeLimit && lb < ub {
		for k := lb; k < ub && k <= maxW; k++ {
			d, ok, err := HypertreeWidthLEBudget(r, k, o.Budget)
			if err != nil {
				break // budget or cover problem: keep the Lemma 4.6 bound
			}
			if ok {
				ub, best = k, d
				break
			}
		}
	}
	res.Lower, res.Upper, res.Decomp = lb, ub, best
	if lb == ub {
		res.Exact = true
		return res, nil
	}
	if o.SkipExactSearch || r.NE() > o.ExactSearchEdgeLimit {
		return res, nil
	}
	// Close the gap with the complete generalized search.
	for k := lb; k < ub; k++ {
		d, ok, err := GeneralizedWidthLE(r, k)
		if err != nil {
			// Candidate-bag space too large: keep bounds.
			return res, nil
		}
		if ok {
			res.Upper, res.Decomp, res.Exact = k, d, true
			res.Lower = k
			return res, nil
		}
	}
	// All widths below ub refuted: ub is exact.
	res.Lower = ub
	res.Exact = true
	return res, nil
}

// ErrWidthExceeded is returned (wrapped) by EvalDecomposition when h has no
// hypertree decomposition within its width cap.
var ErrWidthExceeded = errors.New("decomp: decomposition width exceeds bound")

// EvalDecomposition returns a decomposition of h suitable for driving query
// evaluation: a join tree when h is α-acyclic, otherwise a hypertree
// decomposition of minimum width k. Among width-k plans it prefers one whose
// every cover is connected (CoverConnected), so each bag is a join of its
// cover's relations rather than a cross product; when the search restricted
// to such covers fails or runs out of budget it keeps the first plan found,
// so the width never grows. The plan is the same on every call: the
// children of a node come in order of their smallest edge id. h must have
// no isolated vertices.
//
// maxWidth > 0 caps the search: when hw(h) > maxWidth it returns an error
// wrapping ErrWidthExceeded once the search at maxWidth fails. When ctx ends
// during the search it returns ctx's error.
func EvalDecomposition(ctx context.Context, h *hypergraph.Hypergraph, maxWidth int) (*GHD, error) {
	for v := 0; v < h.NV(); v++ {
		if h.Degree(v) == 0 {
			return nil, ErrNoCover
		}
	}
	if h.NE() == 0 {
		return &GHD{}, nil
	}
	if Acyclic(h) {
		return JoinTree(h)
	}
	if maxWidth <= 0 {
		maxWidth = h.NE()
	}
	// Not acyclic, so hw(h) ≥ 2: the search at k = 1 would fail.
	for k := 2; k <= maxWidth; k++ {
		d, ok, err := search(&hwSearcher{ctx: ctx, h: h, k: k, budget: DefaultSearchBudget})
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for _, lambda := range d.Lambdas {
			if !CoverConnected(h, lambda) {
				if c, ok, _ := connectedWidthLE(ctx, h, k); ok {
					return c, nil
				}
				// A plan cut short by ctx is not the plan of every call.
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				break
			}
		}
		return d, nil
	}
	return nil, fmt.Errorf("%w: hw > %d", ErrWidthExceeded, maxWidth)
}
