package graph

import (
	"fmt"
	"math/bits"
)

// TreewidthExact and MaxExactTreewidthN are the tests' independent oracle for
// TreewidthBB and Decomposition: a subset dynamic program that shares no code
// with the branch and bound's search.

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
