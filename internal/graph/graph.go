// Package graph implements simple undirected graphs together with the
// graph-theoretic machinery the paper relies on: tree decompositions,
// treewidth (exact and heuristic), and graph minors with explicit minor
// maps. Grids are first-class citizens because the Excluded Grid Theorem
// (Proposition 4.5 in the paper) is the engine behind Theorem 4.7.
package graph

import (
	"fmt"
	"strings"

	"d2cq/internal/bitset"
)

// Graph is a finite simple undirected graph on vertices 0..N-1.
type Graph struct {
	n   int
	adj []bitset.Set // adjacency as bitsets, adj[v].Has(u) iff {u,v} ∈ E
}

// New returns an edgeless graph on n vertices.
func New(n int) *Graph {
	g := &Graph{n: n, adj: make([]bitset.Set, n)}
	for i := range g.adj {
		g.adj[i] = bitset.New(n)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int {
	m := 0
	for v := 0; v < g.n; v++ {
		m += g.adj[v].Len()
	}
	return m / 2
}

// AddEdge inserts the undirected edge {u, v}. Self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u].Add(v)
	g.adj[v].Add(u)
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.adj[u].Remove(v)
	g.adj[v].Remove(u)
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool { return u != v && g.adj[u].Has(v) }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return g.adj[v].Len() }

// Neighbors returns the adjacency bitset of v. The caller must not mutate it.
func (g *Graph) Neighbors(v int) bitset.Set { return g.adj[v] }

// Edges returns all edges as ordered pairs (u < v).
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		g.adj[u].ForEach(func(v int) bool {
			if u < v {
				out = append(out, [2]int{u, v})
			}
			return true
		})
	}
	return out
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, adj: make([]bitset.Set, g.n)}
	for i := range g.adj {
		c.adj[i] = g.adj[i].Clone()
	}
	return c
}

// Components returns the connected components as vertex bitsets.
func (g *Graph) Components() []bitset.Set {
	seen := bitset.New(g.n)
	var comps []bitset.Set
	for v := 0; v < g.n; v++ {
		if seen.Has(v) {
			continue
		}
		comp := bitset.New(g.n)
		stack := []int{v}
		comp.Add(v)
		seen.Add(v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.adj[x].ForEach(func(u int) bool {
				if !seen.Has(u) {
					seen.Add(u)
					comp.Add(u)
					stack = append(stack, u)
				}
				return true
			})
		}
		comps = append(comps, comp)
	}
	return comps
}

// ComponentsWithin returns the connected components of the subgraph induced
// by the vertex set within.
func (g *Graph) ComponentsWithin(within bitset.Set) []bitset.Set {
	seen := bitset.New(g.n)
	var comps []bitset.Set
	within.ForEach(func(v int) bool {
		if seen.Has(v) {
			return true
		}
		comp := bitset.New(g.n)
		stack := []int{v}
		comp.Add(v)
		seen.Add(v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.adj[x].ForEach(func(u int) bool {
				if within.Has(u) && !seen.Has(u) {
					seen.Add(u)
					comp.Add(u)
					stack = append(stack, u)
				}
				return true
			})
		}
		comps = append(comps, comp)
		return true
	})
	return comps
}

// Connected reports whether the graph is connected (the empty graph and
// single-vertex graph are connected).
func (g *Graph) Connected() bool {
	return g.n <= 1 || len(g.Components()) == 1
}

// ConnectedSubset reports whether the vertex set s induces a connected
// subgraph (the empty set is considered connected).
func (g *Graph) ConnectedSubset(s bitset.Set) bool {
	start := s.Min()
	if start < 0 {
		return true
	}
	seen := bitset.New(g.n)
	seen.Add(start)
	stack := []int{start}
	count := 1
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.adj[x].ForEach(func(u int) bool {
			if s.Has(u) && !seen.Has(u) {
				seen.Add(u)
				count++
				stack = append(stack, u)
			}
			return true
		})
	}
	return count == s.Len()
}

// String renders the graph in a compact "n=k; u-v u-v ..." form.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d;", g.n)
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, " %d-%d", e[0], e[1])
	}
	return b.String()
}

// --- standard constructions -------------------------------------------------

// Grid returns the n×m grid graph. Vertex (i, j) has index i*m + j,
// 0 ≤ i < n, 0 ≤ j < m.
func Grid(n, m int) *Graph {
	g := New(n * m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			v := i*m + j
			if j+1 < m {
				g.AddEdge(v, v+1)
			}
			if i+1 < n {
				g.AddEdge(v, v+m)
			}
		}
	}
	return g
}

// GridVertex returns the vertex index of grid position (i, j) in an n×m grid.
func GridVertex(i, j, m int) int { return i*m + j }

// Path returns the path graph on n vertices.
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Cycle returns the cycle graph on n ≥ 3 vertices.
func Cycle(n int) *Graph {
	g := Path(n)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Star returns the star K_{1,n} with centre 0 and leaves 1..n.
func Star(n int) *Graph {
	g := New(n + 1)
	for v := 1; v <= n; v++ {
		g.AddEdge(0, v)
	}
	return g
}

// Subdivide returns a copy of g with every edge subdivided once (each edge
// {u,v} replaced by a path u - w - v through a fresh vertex w). Subdividing
// preserves minors and is used to build "decorated" hosts in the Theorem 4.7
// experiments.
func Subdivide(g *Graph) *Graph {
	edges := g.Edges()
	h := New(g.n + len(edges))
	for i, e := range edges {
		w := g.n + i
		h.AddEdge(e[0], w)
		h.AddEdge(w, e[1])
	}
	return h
}

// Wall returns the n×m wall graph: the subcubic relative of the grid used
// throughout grid-minor theory. It is the n×m grid with alternating vertical
// edges removed (vertical edge at row i, column j kept iff (i+j) is even).
// Walls have maximum degree 3, so their duals are degree-2 hypergraphs of
// rank ≤ 3 — convenient hosts for the Theorem 4.7 experiments.
func Wall(n, m int) *Graph {
	g := New(n * m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			v := i*m + j
			if j+1 < m {
				g.AddEdge(v, v+1)
			}
			if i+1 < n && (i+j)%2 == 0 {
				g.AddEdge(v, v+m)
			}
		}
	}
	return g
}
