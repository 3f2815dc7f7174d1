package graph

import (
	"errors"
	"fmt"

	"d2cq/internal/bitset"
)

// MinorMap witnesses that a target graph G is a minor of a host graph F.
// Branch[v] is the branch set μ(v) ⊆ V(F) of target vertex v. The paper's
// three minor-map conditions (connectedness, disjointness, adjacency) are
// checked by Validate.
type MinorMap struct {
	Branch []bitset.Set
}

// Validate checks that m is a minor map from target into host.
func (m *MinorMap) Validate(target, host *Graph) error {
	if len(m.Branch) != target.N() {
		return fmt.Errorf("minormap: %d branch sets for %d target vertices", len(m.Branch), target.N())
	}
	for v, b := range m.Branch {
		if b.Empty() {
			return fmt.Errorf("minormap: empty branch set for target vertex %d", v)
		}
		if !host.ConnectedSubset(b) {
			return fmt.Errorf("minormap: branch set of %d not connected in host", v)
		}
	}
	for u := 0; u < target.N(); u++ {
		for v := u + 1; v < target.N(); v++ {
			if m.Branch[u].Intersects(m.Branch[v]) {
				return fmt.Errorf("minormap: branch sets of %d and %d intersect", u, v)
			}
			if target.HasEdge(u, v) && !adjacentSets(host, m.Branch[u], m.Branch[v]) {
				return fmt.Errorf("minormap: no host edge between branch sets of %d and %d", u, v)
			}
		}
	}
	return nil
}

// Onto reports whether the branch sets cover all host vertices.
func (m *MinorMap) Onto(host *Graph) bool {
	cov := bitset.New(host.N())
	for _, b := range m.Branch {
		cov.UnionWith(b)
	}
	return cov.Len() == host.N()
}

// ExtendOnto grows the branch sets until they cover every host vertex,
// preserving validity. The host must be connected. This realises the paper's
// "w.l.o.g. a minor map is onto" for connected hosts.
func (m *MinorMap) ExtendOnto(host *Graph) error {
	if !host.Connected() {
		return errors.New("minormap: ExtendOnto requires a connected host")
	}
	owner := make([]int, host.N())
	for i := range owner {
		owner[i] = -1
	}
	for t, b := range m.Branch {
		t := t
		b.ForEach(func(v int) bool {
			owner[v] = t
			return true
		})
	}
	for {
		changed := false
		for v := 0; v < host.N(); v++ {
			if owner[v] != -1 {
				continue
			}
			// Attach v to any adjacent branch set.
			attached := false
			host.Neighbors(v).ForEach(func(u int) bool {
				if owner[u] != -1 {
					owner[v] = owner[u]
					m.Branch[owner[u]].Add(v)
					attached = true
					return false
				}
				return true
			})
			if attached {
				changed = true
			}
		}
		done := true
		for v := 0; v < host.N(); v++ {
			if owner[v] == -1 {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		if !changed {
			return errors.New("minormap: could not extend onto host")
		}
	}
}

func adjacentSets(g *Graph, a, b bitset.Set) bool {
	found := false
	a.ForEach(func(v int) bool {
		if g.Neighbors(v).Intersects(b) {
			found = true
			return false
		}
		return true
	})
	return found
}

// ContractEdge returns the graph g/{u,v} (u and v merged into one vertex)
// together with the vertex map from old ids to new ids. It implements the
// constructive edge-contraction used in the definition of graph minors.
func ContractEdge(g *Graph, u, v int) (*Graph, []int) {
	if u > v {
		u, v = v, u
	}
	vmap := make([]int, g.N())
	idx := 0
	for w := 0; w < g.N(); w++ {
		if w == v {
			vmap[w] = vmap[u]
			continue
		}
		vmap[w] = idx
		idx++
	}
	h := New(idx)
	for _, e := range g.Edges() {
		a, b := vmap[e[0]], vmap[e[1]]
		if a != b {
			h.AddEdge(a, b)
		}
	}
	return h, vmap
}

// DeleteVertex returns g with vertex v removed, and the old→new vertex map
// (v maps to -1).
func DeleteVertex(g *Graph, v int) (*Graph, []int) {
	vmap := make([]int, g.N())
	idx := 0
	for w := 0; w < g.N(); w++ {
		if w == v {
			vmap[w] = -1
			continue
		}
		vmap[w] = idx
		idx++
	}
	h := New(idx)
	for _, e := range g.Edges() {
		if e[0] == v || e[1] == v {
			continue
		}
		h.AddEdge(vmap[e[0]], vmap[e[1]])
	}
	return h, vmap
}

// MinorSearchOptions tunes FindMinor.
type MinorSearchOptions struct {
	// MaxBranchSize caps the size of a single branch set (0 = host size).
	MaxBranchSize int
	// MaxNodes caps the number of search-tree nodes before giving up
	// (0 = 5e6). When the cap is hit FindMinor returns nil, ErrSearchBudget.
	MaxNodes int
}

// ErrSearchBudget is returned by FindMinor when the node budget is exhausted
// before the search space was covered; the answer is then unknown.
var ErrSearchBudget = errors.New("minor search: node budget exhausted")

// FindMinor searches for a minor map of target in host by backtracking over
// branch sets. It is complete (up to the search budget): if it returns
// (nil, nil) the target is not a minor of the host. Intended for the small
// instances used in the paper's constructions; minor containment is
// NP-complete in general.
func FindMinor(target, host *Graph, opts *MinorSearchOptions) (*MinorMap, error) {
	if target.N() == 0 {
		return &MinorMap{}, nil
	}
	if target.N() > host.N() {
		return nil, nil
	}
	maxBranch := host.N()
	maxNodes := 5_000_000
	if opts != nil {
		if opts.MaxBranchSize > 0 {
			maxBranch = opts.MaxBranchSize
		}
		if opts.MaxNodes > 0 {
			maxNodes = opts.MaxNodes
		}
	}
	order := bfsOrder(target)
	s := &minorSearcher{
		target:    target,
		host:      host,
		order:     order,
		branch:    make([]bitset.Set, target.N()),
		used:      bitset.New(host.N()),
		maxBranch: maxBranch,
		budget:    maxNodes,
	}
	ok, err := s.place(0)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return &MinorMap{Branch: s.branch}, nil
}

type minorSearcher struct {
	target    *Graph
	host      *Graph
	order     []int
	branch    []bitset.Set
	used      bitset.Set
	maxBranch int
	budget    int
}

// place assigns a branch set to the idx-th target vertex in search order.
func (s *minorSearcher) place(idx int) (bool, error) {
	if idx == len(s.order) {
		return true, nil
	}
	t := s.order[idx]
	// Earlier neighbours of t whose branch sets the new set must touch.
	var needAdj []bitset.Set
	for j := 0; j < idx; j++ {
		p := s.order[j]
		if s.target.HasEdge(t, p) {
			needAdj = append(needAdj, s.branch[p])
		}
	}
	free := bitset.New(s.host.N())
	for v := 0; v < s.host.N(); v++ {
		if !s.used.Has(v) {
			free.Add(v)
		}
	}
	// Enumerate connected subsets of free vertices, rooted to avoid
	// duplicates: subsets whose minimum element is r use only vertices ≥ r.
	var found bool
	var searchErr error
	free.ForEach(func(r int) bool {
		allowed := free.Clone()
		for v := 0; v < r; v++ {
			allowed.Remove(v)
		}
		set := bitset.New(s.host.N())
		set.Add(r)
		ok, err := s.growSet(idx, t, set, allowed, r, needAdj)
		if err != nil {
			searchErr = err
			return false
		}
		if ok {
			found = true
			return false
		}
		return true
	})
	return found, searchErr
}

// growSet recursively extends the candidate branch set and tries to place the
// remaining target vertices whenever the adjacency requirements are met.
func (s *minorSearcher) growSet(idx, t int, set, allowed bitset.Set, root int, needAdj []bitset.Set) (bool, error) {
	s.budget--
	if s.budget <= 0 {
		return false, ErrSearchBudget
	}
	// Check whether the current set already satisfies all adjacency needs.
	satisfied := true
	for _, nb := range needAdj {
		if !adjacentSets(s.host, set, nb) {
			satisfied = false
			break
		}
	}
	if satisfied {
		s.branch[t] = set.Clone()
		s.used.UnionWith(set)
		ok, err := s.place(idx + 1)
		set.ForEach(func(v int) bool { s.used.Remove(v); return true })
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	if set.Len() >= s.maxBranch {
		return false, nil
	}
	// Frontier: allowed vertices adjacent to the set, not already in it.
	frontier := bitset.New(s.host.N())
	set.ForEach(func(v int) bool {
		frontier.UnionWith(s.host.Neighbors(v))
		return true
	})
	frontier.IntersectWith(allowed)
	frontier.DiffWith(set)
	var res bool
	var resErr error
	frontier.ForEach(func(v int) bool {
		set.Add(v)
		// To avoid enumerating the same set twice, vertices skipped at this
		// level are banned below: remove v from allowed after recursing.
		ok, err := s.growSet(idx, t, set, allowed, root, needAdj)
		set.Remove(v)
		allowed.Remove(v)
		if err != nil {
			resErr = err
			return false
		}
		if ok {
			res = true
			return false
		}
		return true
	})
	// Restore allowed for the caller.
	frontier.ForEach(func(v int) bool { allowed.Add(v); return true })
	return res, resErr
}

// bfsOrder returns the vertices of g in BFS order from vertex 0 (components
// after the first are appended in BFS order of their smallest vertex), so
// that each vertex after the first in its component has an earlier neighbour.
func bfsOrder(g *Graph) []int {
	seen := bitset.New(g.N())
	var order []int
	for v := 0; v < g.N(); v++ {
		if seen.Has(v) {
			continue
		}
		queue := []int{v}
		seen.Add(v)
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			order = append(order, x)
			g.Neighbors(x).ForEach(func(u int) bool {
				if !seen.Has(u) {
					seen.Add(u)
					queue = append(queue, u)
				}
				return true
			})
		}
	}
	return order
}

// GridMinorInGrid returns the trivial minor map of the n×n grid inside the
// N×M grid host (N ≥ n, M ≥ n): singleton branch sets on the top-left
// subgrid. It exists to keep the Theorem 4.7 pipeline fast on structured
// hosts where full search is unnecessary.
func GridMinorInGrid(n, hostN, hostM int) (*MinorMap, error) {
	if hostN < n || hostM < n {
		return nil, fmt.Errorf("grid minor: host %d×%d too small for %d×%d", hostN, hostM, n, n)
	}
	m := &MinorMap{Branch: make([]bitset.Set, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b := bitset.New(hostN * hostM)
			b.Add(GridVertex(i, j, hostM))
			m.Branch[i*n+j] = b
		}
	}
	return m, nil
}
