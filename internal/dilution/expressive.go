package dilution

import (
	"errors"
	"fmt"

	"d2cq/internal/bitset"
	"d2cq/internal/graph"
	"d2cq/internal/hypergraph"
)

// ExpressiveMinor witnesses that a graph g is an expressive minor of a
// hypergraph h (Definition D.1, Appendix D): a minor map μ from g onto h
// (over h's vertices) together with an injective edge mapping
// ρ : E(g) → E(h) whose images respect branch adjacency and are connected by
// paths inside the branch sets. Expressive minors retain hyperedge structure
// that plain Gaifman-graph minors lose, and they are the engine behind the
// bounded-degree generalisation (Theorem 5.2).
type ExpressiveMinor struct {
	// Branch[v] ⊆ V(h) is μ(v) for each g vertex.
	Branch []bitset.Set
	// Rho[i] is the h edge assigned to the i-th edge of g (in g.Edges()
	// order).
	Rho []int
}

// Validate checks all conditions of Definition D.1 against g and h.
func (em *ExpressiveMinor) Validate(g *graph.Graph, h *hypergraph.Hypergraph) error {
	if len(em.Branch) != g.N() {
		return fmt.Errorf("expressive: %d branch sets for %d vertices", len(em.Branch), g.N())
	}
	primal := h.Primal()
	// Minor map conditions over the hypergraph's vertex set.
	cover := bitset.New(h.NV())
	for v, b := range em.Branch {
		if b.Empty() {
			return fmt.Errorf("expressive: empty branch for g vertex %d", v)
		}
		if !primal.ConnectedSubset(b) {
			return fmt.Errorf("expressive: branch of g vertex %d not connected in h", v)
		}
		if b.Intersects(cover) {
			return fmt.Errorf("expressive: branch of g vertex %d overlaps another", v)
		}
		cover.UnionWith(b)
	}
	if cover.Len() != h.NV() {
		return errors.New("expressive: minor map is not onto h")
	}
	edges := g.Edges()
	if len(em.Rho) != len(edges) {
		return fmt.Errorf("expressive: %d ρ entries for %d g edges", len(em.Rho), len(edges))
	}
	// Condition 1: injectivity.
	seen := map[int]bool{}
	marked := map[int]bool{}
	for i, e := range em.Rho {
		if e < 0 || e >= h.NE() {
			return fmt.Errorf("expressive: ρ entry %d out of range", i)
		}
		if seen[e] {
			return fmt.Errorf("expressive: ρ not injective (edge %s reused)", h.EdgeName(e))
		}
		seen[e] = true
		marked[e] = true
	}
	// Condition 2: ρ(e) touches both branch sets.
	for i, ge := range edges {
		he := h.EdgeSet(em.Rho[i])
		if !he.Intersects(em.Branch[ge[0]]) || !he.Intersects(em.Branch[ge[1]]) {
			return fmt.Errorf("expressive: ρ of g edge %d-%d misses a branch set", ge[0], ge[1])
		}
	}
	// Condition 3: for incident g edges e1, e2 at v there is an edge path
	// ρ(e1) … ρ(e2) through vertices of μ(v) avoiding other marked edges.
	for v := 0; v < g.N(); v++ {
		var incident []int
		for i, ge := range edges {
			if ge[0] == v || ge[1] == v {
				incident = append(incident, i)
			}
		}
		for a := 0; a < len(incident); a++ {
			for b := a + 1; b < len(incident); b++ {
				if !edgePathExists(h, em.Rho[incident[a]], em.Rho[incident[b]], em.Branch[v], marked) {
					return fmt.Errorf("expressive: no internal path between ρ(e%d) and ρ(e%d) inside μ(%d)",
						incident[a], incident[b], v)
				}
			}
		}
	}
	return nil
}

// edgePathExists searches for an alternating edge-vertex path from edge
// start to edge goal where every intermediate vertex lies in allowed and no
// intermediate edge is marked.
func edgePathExists(h *hypergraph.Hypergraph, start, goal int, allowed bitset.Set, marked map[int]bool) bool {
	if start == goal {
		return true
	}
	// BFS over edges: start and goal are exempt from the marked-edge rule.
	visited := make([]bool, h.NE())
	queue := []int{start}
	visited[start] = true
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		// Step: via any vertex of e inside allowed, to any edge containing
		// that vertex.
		step := h.EdgeSet(e).Intersect(allowed)
		stepDone := false
		step.ForEach(func(w int) bool {
			for f := 0; f < h.NE(); f++ {
				if visited[f] || !h.EdgeSet(f).Has(w) {
					continue
				}
				if f == goal {
					stepDone = true
					return false
				}
				if marked[f] {
					continue // interior edges must be unmarked
				}
				visited[f] = true
				queue = append(queue, f)
			}
			return true
		})
		if stepDone {
			return true
		}
	}
	return false
}

// ExpressiveFromSingletons builds the canonical expressive minor witness for
// hosts where a plain minor map with singleton-extendable structure exists:
// branch sets come from mm, and ρ greedily picks, per g edge, an unused h
// edge touching both branches. The witness is validated before being
// returned. (The appendix notes that for 2-uniform h every minor is
// expressive; this builder realises that and also covers benign hypergraph
// hosts.)
func ExpressiveFromSingletons(g *graph.Graph, h *hypergraph.Hypergraph, mm *graph.MinorMap) (*ExpressiveMinor, error) {
	em := &ExpressiveMinor{Branch: make([]bitset.Set, len(mm.Branch))}
	for i, b := range mm.Branch {
		em.Branch[i] = b.Clone()
	}
	used := map[int]bool{}
	for _, ge := range g.Edges() {
		found := -1
		for e := 0; e < h.NE(); e++ {
			if used[e] {
				continue
			}
			if h.EdgeSet(e).Intersects(em.Branch[ge[0]]) && h.EdgeSet(e).Intersects(em.Branch[ge[1]]) {
				found = e
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("dilution: no unused edge for g edge %d-%d", ge[0], ge[1])
		}
		used[found] = true
		em.Rho = append(em.Rho, found)
	}
	if err := em.Validate(g, h); err != nil {
		return nil, err
	}
	return em, nil
}

// PreJigsawFromExpressiveMinor implements the constructive content of
// Lemma D.4 / Theorem 5.2: given a hypergraph h (any bounded degree) whose
// dual hosts an expressive minor of the n×m grid, it produces a dilution of
// h (vertex deletions only) that is an n×m-pre-jigsaw, together with the
// verified Definition 5.1 witness.
//
// The dualisation: π sends the jigsaw vertex of grid edge i to the h vertex
// whose incidence set is ρ(i); o sends the jigsaw edge of grid vertex u to
// the h edges μ(u); connecting paths are found inside o-images avoiding π
// images, and every vertex on no path and in no image is deleted.
func PreJigsawFromExpressiveMinor(h *hypergraph.Hypergraph, n, m int, em *ExpressiveMinor) (*hypergraph.Hypergraph, *PreJigsawWitness, Sequence, error) {
	g := graph.Grid(n, m)
	dual := h.Dual()
	if err := em.Validate(g, dual); err != nil {
		return nil, nil, nil, fmt.Errorf("dilution: expressive minor invalid in dual: %w", err)
	}
	j := Jigsaw(n, m)
	w := &PreJigsawWitness{N: n, M: m, Pi: map[string]string{}, O: map[string][]string{}, Paths: map[string][]string{}}
	gridEdges := g.Edges()
	// π: jigsaw vertices ↔ grid edges ↔ dual edges ↔ h vertices.
	// The Jigsaw constructor names vertices h<i>,<j> / v<i>,<j>; recover the
	// grid-edge index for each jigsaw vertex by matching endpoints.
	edgeIdx := map[[2]int]int{}
	for i, ge := range gridEdges {
		edgeIdx[[2]int{ge[0], ge[1]}] = i
	}
	jigsawVertexToGridEdge := func(name string) (int, error) {
		var a, b int
		if _, err := fmt.Sscanf(name, "h%d,%d", &a, &b); err == nil {
			u := graph.GridVertex(a-1, b-1, m)
			v := graph.GridVertex(a-1, b, m)
			if i, ok := edgeIdx[[2]int{min(u, v), max(u, v)}]; ok {
				return i, nil
			}
		}
		if _, err := fmt.Sscanf(name, "v%d,%d", &a, &b); err == nil {
			u := graph.GridVertex(a-1, b-1, m)
			v := graph.GridVertex(a, b-1, m)
			if i, ok := edgeIdx[[2]int{min(u, v), max(u, v)}]; ok {
				return i, nil
			}
		}
		return 0, fmt.Errorf("dilution: cannot place jigsaw vertex %s on the grid", name)
	}
	piImage := bitset.New(h.NV())
	for v := 0; v < j.NV(); v++ {
		name := j.VertexName(v)
		gi, err := jigsawVertexToGridEdge(name)
		if err != nil {
			return nil, nil, nil, err
		}
		// ρ(gi) is a dual edge = an h vertex (dual edge names are h vertex
		// names).
		hv := dual.EdgeName(em.Rho[gi])
		w.Pi[name] = hv
		piImage.Add(h.VertexID(hv))
	}
	// o: jigsaw edges ↔ grid vertices ↔ branch sets ⊆ V(dual) = E(h).
	for e := 0; e < j.NE(); e++ {
		var gi, gjj int
		if _, err := fmt.Sscanf(j.EdgeName(e), "e%d,%d", &gi, &gjj); err != nil {
			return nil, nil, nil, fmt.Errorf("dilution: unexpected jigsaw edge name %s", j.EdgeName(e))
		}
		gv := graph.GridVertex(gi-1, gjj-1, m)
		var names []string
		em.Branch[gv].ForEach(func(de int) bool {
			names = append(names, h.EdgeName(de))
			return true
		})
		w.O[j.EdgeName(e)] = names
	}
	// Paths: BFS inside each o-image avoiding π images.
	onPaths := bitset.New(h.NV())
	for e := 0; e < j.NE(); e++ {
		jname := j.EdgeName(e)
		allowed := map[int]bool{}
		for _, en := range w.O[jname] {
			allowed[h.EdgeID(en)] = true
		}
		verts := j.EdgeVertexNames(e)
		for a := 0; a < len(verts); a++ {
			for b := a + 1; b < len(verts); b++ {
				from, to := w.Pi[verts[a]], w.Pi[verts[b]]
				path, err := findPath(h, from, to, allowed, piImage)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("dilution: %s–%s in %s: %w", verts[a], verts[b], jname, err)
				}
				w.Paths[PathKey(verts[a], verts[b])] = path
				for i := 0; i < len(path); i += 2 {
					onPaths.Add(h.VertexID(path[i]))
				}
			}
		}
	}
	// Condition 4 by dilution: delete every vertex outside im(π) ∪ paths.
	var seq Sequence
	cur := h
	for v := 0; v < h.NV(); v++ {
		if piImage.Has(v) || onPaths.Has(v) {
			continue
		}
		op := Op{Kind: DeleteVertex, Vertex: h.VertexName(v)}
		st, err := Apply(cur, op)
		if err != nil {
			return nil, nil, nil, err
		}
		seq = append(seq, op)
		cur = st.After
	}
	if err := VerifyPreJigsaw(cur, w); err != nil {
		return nil, nil, nil, fmt.Errorf("dilution: constructed witness rejected: %w", err)
	}
	return cur, w, seq, nil
}

// findPath BFSes an alternating vertex-edge path in h from vertex 'from' to
// vertex 'to' using only allowed edges, with no internal π-image vertices.
func findPath(h *hypergraph.Hypergraph, from, to string, allowed map[int]bool, piImage bitset.Set) ([]string, error) {
	src, dst := h.VertexID(from), h.VertexID(to)
	if src < 0 || dst < 0 {
		return nil, fmt.Errorf("unknown endpoint %s/%s", from, to)
	}
	type state struct {
		vertex int
		parent int // index into states
		edge   int // edge used to reach this vertex
	}
	states := []state{{vertex: src, parent: -1, edge: -1}}
	seen := map[int]bool{src: true}
	for head := 0; head < len(states); head++ {
		cur := states[head]
		for e := 0; e < h.NE(); e++ {
			if !allowed[e] || !h.EdgeSet(e).Has(cur.vertex) {
				continue
			}
			next := -1
			h.EdgeSet(e).ForEach(func(u int) bool {
				if u == dst {
					next = u
					return false
				}
				if !seen[u] && !piImage.Has(u) {
					states = append(states, state{vertex: u, parent: head, edge: e})
					seen[u] = true
				}
				return true
			})
			if next == dst {
				// Reconstruct.
				path := []string{h.VertexName(dst), h.EdgeName(e)}
				for i := head; i >= 0; i = states[i].parent {
					path = append(path, h.VertexName(states[i].vertex))
					if states[i].edge >= 0 {
						path = append(path, h.EdgeName(states[i].edge))
					}
				}
				// Reverse.
				for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
					path[l], path[r] = path[r], path[l]
				}
				return path, nil
			}
		}
	}
	return nil, errors.New("no connecting path")
}
