package graph

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"d2cq/internal/bitset"
)

// ErrBBBudget is returned when the branch-and-bound treewidth search
// exhausts its node budget before proving optimality.
var ErrBBBudget = errors.New("treewidth: branch-and-bound budget exhausted")

// bbSearch is the branch-and-bound state. The search eliminates in place:
// h is the filled graph of the current prefix, each elimination records the
// fill edges it adds on the fill stack and removes them again on return.
type bbSearch struct {
	h         *Graph     // filled graph of the current prefix
	alive     bitset.Set // vertices not yet eliminated
	order     []int      // current elimination prefix
	fill      [][2]int   // fill edges added along the current prefix
	bestWidth int
	bestOrder []int
	seen      map[string]int // alive-set key → smallest prefix width seen
	budget    int
	key       []byte     // scratch: the alive set as a memo key
	cands     [][]int    // scratch: candidate list per depth
	deg       []int      // scratch: live degrees
	left      bitset.Set // scratch: lowerMMD's vertices not yet deleted
}

// TreewidthBB computes tw(g) exactly by branch and bound over elimination
// order prefixes (QuickBB-flavoured): it starts from the heuristic upper
// bound and prunes with the MMD lower bound of the remaining subgraph, a
// dominance memo over eliminated sets, and the simplicial-vertex rule. It
// handles graphs beyond the subset-DP limit; runtime is governed by budget
// (0 = 2e6 search nodes). On budget exhaustion the current best upper bound
// and ErrBBBudget are returned. The search order is fixed (candidates by live
// degree, ties by vertex id), so a search that runs out of budget returns
// the same width and order every time.
func TreewidthBB(g *Graph, budget int) (int, []int, error) {
	n := g.N()
	if n == 0 {
		return -1, nil, nil
	}
	if budget <= 0 {
		budget = 2_000_000
	}
	ub, order := TreewidthUpper(g)
	lb := TreewidthLowerMMD(g)
	if lb >= ub {
		return ub, order, nil
	}
	s := &bbSearch{
		h:         g.Clone(),
		alive:     fullSet(n),
		order:     make([]int, 0, n),
		bestWidth: ub,
		bestOrder: order,
		seen:      map[string]int{},
		budget:    budget,
		cands:     make([][]int, n),
		deg:       make([]int, n),
		left:      bitset.New(n),
	}
	err := s.dfs(0)
	return s.bestWidth, s.bestOrder, err
}

// dfs explores the current prefix, whose width so far is width.
func (s *bbSearch) dfs(width int) error {
	s.budget--
	if s.budget <= 0 {
		return ErrBBBudget
	}
	if width >= s.bestWidth {
		return nil // cannot improve
	}
	if s.alive.Len() <= width+1 {
		// Remaining vertices fit in one final bag: tw of this order = width.
		s.bestWidth = width
		s.bestOrder = append(append([]int(nil), s.order...), s.alive.Slice()...)
		return nil
	}
	s.key = s.key[:0]
	for _, w := range s.alive {
		s.key = binary.LittleEndian.AppendUint64(s.key, w)
	}
	if prev, ok := s.seen[string(s.key)]; ok && prev <= width {
		return nil
	}
	s.seen[string(s.key)] = width
	// Lower bound on the remaining subgraph.
	if rem := lowerMMD(s.h, s.alive, s.left, s.deg); max(rem, width) >= s.bestWidth {
		return nil
	}
	depth := len(s.order)
	cands := s.cands[depth][:0]
	s.alive.ForEach(func(v int) bool {
		cands = append(cands, v)
		return true
	})
	s.cands[depth] = cands
	// Simplicial rule: a vertex whose live neighbourhood is already a clique
	// can be eliminated first w.l.o.g.
	for _, v := range cands {
		if s.isSimplicial(v) {
			return s.eliminate(v, width)
		}
	}
	s.sortByLiveDegree(cands)
	for _, v := range cands {
		if err := s.eliminate(v, width); err != nil {
			return err
		}
	}
	return nil
}

// eliminate fills v's live neighbourhood into a clique, removes v from the
// alive set, searches on, and then undoes both.
func (s *bbSearch) eliminate(v, width int) error {
	nbrs := s.h.adj[v]
	mark := len(s.fill)
	d := 0
	for i, w := range nbrs {
		w &= s.alive[i]
		for ; w != 0; w &= w - 1 {
			a := i*64 + bits.TrailingZeros64(w)
			d++
			// Join a to every live neighbour of v above it.
			for j := i; j < len(nbrs); j++ {
				x := nbrs[j] & s.alive[j] &^ s.h.adj[a][j]
				if j == i {
					x &= ^uint64(0) << (uint(a)%64 + 1)
				}
				for ; x != 0; x &= x - 1 {
					b := j*64 + bits.TrailingZeros64(x)
					s.h.AddEdge(a, b)
					s.fill = append(s.fill, [2]int{a, b})
				}
			}
		}
	}
	s.alive.Remove(v)
	s.order = append(s.order, v)
	err := s.dfs(max(width, d))
	s.order = s.order[:len(s.order)-1]
	s.alive.Add(v)
	for _, e := range s.fill[mark:] {
		s.h.RemoveEdge(e[0], e[1])
	}
	s.fill = s.fill[:mark]
	return err
}

// isSimplicial reports whether v's live neighbourhood is a clique: every
// live neighbour a of v is adjacent to all the others.
func (s *bbSearch) isSimplicial(v int) bool {
	nbrs := s.h.adj[v]
	for i, w := range nbrs {
		w &= s.alive[i]
		for ; w != 0; w &= w - 1 {
			a := i*64 + bits.TrailingZeros64(w)
			for j, x := range nbrs {
				x &= s.alive[j] &^ s.h.adj[a][j]
				if j == i {
					x &^= 1 << (uint(a) % 64)
				}
				if x != 0 {
					return false
				}
			}
		}
	}
	return true
}

// sortByLiveDegree stably sorts vs by live degree.
func (s *bbSearch) sortByLiveDegree(vs []int) {
	for _, v := range vs {
		s.deg[v] = s.h.adj[v].IntersectionLen(s.alive)
	}
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && s.deg[vs[j]] < s.deg[vs[j-1]]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// lowerMMD returns the MMD (maximum minimum degree) lower bound of the
// subgraph of h induced by alive: repeatedly delete a minimum-degree vertex
// (the smallest such id); the maximum of the minimum degrees observed is a
// lower bound for its treewidth. left and deg are scratch of capacity h.N().
func lowerMMD(h *Graph, alive, left bitset.Set, deg []int) int {
	copy(left, alive)
	alive.ForEach(func(v int) bool {
		deg[v] = h.adj[v].IntersectionLen(alive)
		return true
	})
	lb := 0
	for {
		best, bestDeg := -1, 1<<30
		left.ForEach(func(v int) bool {
			if deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
			return true
		})
		if best < 0 {
			return lb
		}
		lb = max(lb, bestDeg)
		left.Remove(best)
		for i, w := range h.adj[best] {
			for w &= left[i]; w != 0; w &= w - 1 {
				deg[i*64+bits.TrailingZeros64(w)]--
			}
		}
	}
}

// fullSet returns the set of all n vertices.
func fullSet(n int) bitset.Set {
	s := bitset.New(n)
	for v := 0; v < n; v++ {
		s.Add(v)
	}
	return s
}
