package engine

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"d2cq/internal/cq"
	"d2cq/internal/decomp"
	"d2cq/internal/hypergraph"
)

// Plan is the immutable, data-independent part of a compiled query: the
// query's hypergraph, the decomposition, the atom→node assignment, the
// per-node bag and cover variable lists, and the traversal orders. A Plan
// never changes after NewPlan returns and is safe for concurrent use by any
// number of evaluations; all data-dependent state lives in the per-call run.
//
// A Plan with a nil decomposition is a naive-fallback plan: evaluation
// backtracks over the atoms without a decomposition.
type Plan struct {
	query cq.Query
	h     *hypergraph.Hypergraph
	d     *decomp.GHD // nil for a naive plan

	vars   []string  // hypergraph vertex id → variable name
	qvars  []string  // the query's variables, sorted
	noRows *Relation // the empty relation over qvars; shared, never written

	// Per-node plan shape (empty for naive plans and ground queries).
	filters    [][]int    // node → the atoms Bind semijoins at it: those assigned to it that no λ edge at or below it enforces
	bagVars    [][]string // node → sorted bag variable names
	lambdaVars [][][]string
	lambdaKeep [][][]string // node → per λ edge: the columns it is joined on when it has private ones, projected out first (maybe none); nil: all
	children   [][]int
	order      []int      // topological order, leaves before parents
	pre        []int      // pre-order (order reversed): every node after its ancestors
	shared     [][]string // node → bag vars shared with the parent's bag

	// Precomputed join-column sets. Node relations always carry their bag
	// variables in sorted order (bindNodes projects onto bagVars and semijoins
	// preserve columns), so column positions are fixed at plan time and the
	// per-evaluation passes never touch column names again.
	childJoins [][]childJoin // node → per-child semijoin/count key positions
	sharedPos  [][]int       // node → positions of shared[u] within bagVars[u]
	bagVids    [][]int       // node → hypergraph vertex id of each bag column
	sharedVids [][]int       // node → vertex id of each shared column
	maxShared  int           // the most columns a node shares with its parent

	// The join inputs of the nodes (maintplan.go), which Bind joins and
	// Rebind delta-joins alike. Inputs are numbered atoms first, then one
	// key set per node (keyInput), then one weighted projection per λ edge
	// joined through one (weightedInput).
	atomVars     [][]string      // input → its columns: an atom's sorted distinct variables, a key set's shared[u], a projection's kept columns and its weight column
	directAtom   []bool          // atom → its arguments are exactly those, in that order: its relation is the table
	weighted     []weightedInput // weightedInput(0) onwards → the atom it projects
	inputs       [][]int         // node → inputs joined at the node: its λ inputs (atoms or projections), its filters, its children's key sets
	lambdaInputs []int           // node → how many of inputs[u] are λ inputs, which come first
}

// childJoin is the precomputed key of the join between a node's relation and
// one child's relation: the shared bag variables and their column positions
// on both sides.
type childJoin struct {
	child  int
	shared []string
	uPos   []int // positions in the node's bag columns
	cPos   []int // positions in the child's bag columns
}

// NewPlan compiles q against the decomposition d: assigns every atom to a
// node whose bag covers its variables and fixes the traversal orders. d must
// be a decomposition of q's hypergraph (pass nil for a naive plan).
func NewPlan(q cq.Query, d *decomp.GHD) (*Plan, error) {
	h := q.Hypergraph()
	p := &Plan{query: q, h: h, d: d, vars: h.VertexNames(), qvars: q.Vars()}
	p.noRows = NewRelation(p.qvars...)
	if d == nil || d.Nodes() == 0 {
		return p, nil
	}
	p.children = d.Children()
	// Assign each atom to a node whose bag contains its variables.
	assigned := make([][]int, d.Nodes())
	for ai, a := range q.Atoms {
		vs := a.VarSet()
		node := -1
		for u, bag := range d.Bags {
			all := true
			for _, v := range vs {
				id := h.VertexID(v)
				if id < 0 || !bag.Has(id) {
					all = false
					break
				}
			}
			if all {
				node = u
				break
			}
		}
		if node < 0 {
			return nil, fmt.Errorf("engine: atom %s fits no bag", a)
		}
		assigned[node] = append(assigned[node], ai)
	}
	// Per-node variable lists.
	p.bagVars = make([][]string, d.Nodes())
	p.lambdaVars = make([][][]string, d.Nodes())
	for u := 0; u < d.Nodes(); u++ {
		var bagVars []string
		d.Bags[u].ForEach(func(v int) bool {
			bagVars = append(bagVars, p.vars[v])
			return true
		})
		sort.Strings(bagVars)
		p.bagVars[u] = bagVars
		for _, e := range d.Lambdas[u] {
			names := make([]string, 0, h.EdgeSet(e).Len())
			h.EdgeSet(e).ForEach(func(v int) bool {
				names = append(names, p.vars[v])
				return true
			})
			sort.Strings(names)
			p.lambdaVars[u] = append(p.lambdaVars[u], names)
		}
	}
	// Bag variables shared with the parent (the enumeration join keys).
	p.shared = make([][]string, d.Nodes())
	for u := 0; u < d.Nodes(); u++ {
		if parent := d.Parent[u]; parent >= 0 {
			var sh []string
			d.Bags[u].ForEach(func(v int) bool {
				if d.Bags[parent].Has(v) {
					sh = append(sh, p.vars[v])
				}
				return true
			})
			sort.Strings(sh)
			p.shared[u] = sh
		}
	}
	// Topological order (children before parents).
	p.order = make([]int, 0, d.Nodes())
	var visit func(u int)
	visit = func(u int) {
		for _, c := range p.children[u] {
			visit(c)
		}
		p.order = append(p.order, u)
	}
	if root := d.Root(); root >= 0 {
		visit(root)
	}
	if len(p.order) != d.Nodes() {
		return nil, fmt.Errorf("engine: decomposition tree is not connected")
	}
	p.pre = make([]int, len(p.order))
	for i, u := range p.order {
		p.pre[len(p.order)-1-i] = u
	}
	// Filters, enforced once: an atom assigned to u is no filter there when a
	// λ edge over exactly its variables sits at u or at a node w below it
	// whose bag holds them. The edge relation is the join of every atom over
	// those variables, so B(w) satisfies the atom; and every node on the way
	// up from w holds them in its bag (they are in bag(u) and bag(w)), so
	// each child's key set on the path carries the constraint up to u. The
	// semijoin would keep every row and every derivation, in Bind and in
	// maintenance alike.
	p.filters = make([][]int, d.Nodes())
	enforced := make([]map[string]bool, d.Nodes()) // node → var sets of λ edges at or below it, within their node's bag
	for _, u := range p.order {
		enforced[u] = map[string]bool{}
		for _, c := range p.children[u] {
			maps.Copy(enforced[u], enforced[c])
		}
		for i, e := range d.Lambdas[u] {
			if h.EdgeSet(e).SubsetOf(d.Bags[u]) {
				enforced[u][edgeKey(p.lambdaVars[u][i])] = true
			}
		}
		for _, ai := range assigned[u] {
			if !enforced[u][edgeKey(q.Atoms[ai].VarSet())] {
				p.filters[u] = append(p.filters[u], ai)
			}
		}
	}
	// λ-private columns: a λ edge's column that neither the bag nor another
	// λ edge of the node holds is read by nothing in the node's join, so the
	// edge is joined through its projection onto the other columns — none,
	// when it has only private ones — each tuple weighted by its
	// multiplicity (weightedProjection). The bag relation is the same; a
	// derivation count is the sum, per bag tuple, of the product of the
	// weights — the full join's. An edge that several atoms carry is the
	// join of their relations and is joined whole, atom by atom.
	atomsOver := map[string]int{}
	for _, a := range q.Atoms {
		atomsOver[edgeKey(a.VarSet())]++
	}
	p.lambdaKeep = make([][][]string, d.Nodes())
	for u := 0; u < d.Nodes(); u++ {
		p.lambdaKeep[u] = make([][]string, len(p.lambdaVars[u]))
		for i, names := range p.lambdaVars[u] {
			if atomsOver[edgeKey(names)] > 1 {
				continue
			}
			keep := []string{}
			for _, v := range names {
				held := slices.Contains(p.bagVars[u], v)
				for j, other := range p.lambdaVars[u] {
					held = held || (j != i && slices.Contains(other, v))
				}
				if held {
					keep = append(keep, v)
				}
			}
			if len(keep) < len(names) {
				p.lambdaKeep[u][i] = keep
			}
		}
	}
	// Column positions of every join the evaluation passes will run, fixed
	// now so indexes can be built straight off precomputed integer columns.
	p.childJoins = make([][]childJoin, d.Nodes())
	p.sharedPos = make([][]int, d.Nodes())
	p.bagVids = make([][]int, d.Nodes())
	p.sharedVids = make([][]int, d.Nodes())
	for u := 0; u < d.Nodes(); u++ {
		for _, c := range p.children[u] {
			cj := childJoin{child: c}
			for i, name := range p.bagVars[u] {
				if j := slices.Index(p.bagVars[c], name); j >= 0 {
					cj.shared = append(cj.shared, name)
					cj.uPos = append(cj.uPos, i)
					cj.cPos = append(cj.cPos, j)
				}
			}
			p.childJoins[u] = append(p.childJoins[u], cj)
		}
		p.bagVids[u] = make([]int, len(p.bagVars[u]))
		for i, name := range p.bagVars[u] {
			p.bagVids[u][i] = h.VertexID(name)
		}
		p.sharedPos[u] = make([]int, len(p.shared[u]))
		p.sharedVids[u] = make([]int, len(p.shared[u]))
		for i, name := range p.shared[u] {
			p.sharedPos[u][i] = slices.Index(p.bagVars[u], name)
			p.sharedVids[u][i] = h.VertexID(name)
		}
		p.maxShared = max(p.maxShared, len(p.shared[u]))
	}
	p.planInputs()
	return p, nil
}

// Query returns the compiled query.
func (p *Plan) Query() cq.Query { return p.query }

// Vars returns the query's variables in output order (sorted).
func (p *Plan) Vars() []string { return p.qvars }

// Decomp returns the decomposition behind the plan (nil for a naive plan).
func (p *Plan) Decomp() *decomp.GHD { return p.d }

// Naive reports whether the plan evaluates by backtracking without a
// decomposition.
func (p *Plan) Naive() bool { return p.d == nil }

// Width returns the decomposition width (0 for naive and ground plans).
func (p *Plan) Width() int {
	if p.d == nil {
		return 0
	}
	return p.d.Width()
}

// Explain renders the data-independent plan: the decomposition tree with
// per-node bags, covers and the atoms Bind filters each node by. A λ edge
// joined through its projection shows the columns it keeps, as a[x,y] (a[]
// for none). A cover that is not connected (decomp.CoverConnected) is marked "×": its bag is a cross product, kept
// only because the search found no plan of the same width without one. See
// PreparedQuery.ExplainDB for the variant that includes materialised
// relation sizes.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", p.query)
	if p.d == nil {
		fmt.Fprintf(&b, "plan: naive backtracking over %d atoms\n", len(p.query.Atoms))
		return b.String()
	}
	fmt.Fprintf(&b, "decomposition: %d nodes, width %d\n", p.d.Nodes(), p.d.Width())
	if p.d.Nodes() == 0 {
		fmt.Fprintf(&b, "(ground query: emptiness checks only)\n")
		return b.String()
	}
	var walk func(u, depth int)
	walk = func(u, depth int) {
		indent := strings.Repeat("  ", depth)
		var cover []string
		for i, e := range p.d.Lambdas[u] {
			name := p.h.EdgeName(e)
			if keep := p.lambdaKeep[u][i]; keep != nil {
				name += "[" + strings.Join(keep, ",") + "]"
			}
			cover = append(cover, name)
		}
		fmt.Fprintf(&b, "%snode %d: bag={%s} λ={%s}", indent, u,
			strings.Join(p.bagVars[u], ","), strings.Join(cover, ","))
		if !decomp.CoverConnected(p.h, p.d.Lambdas[u]) {
			b.WriteString(" ×")
		}
		if len(p.filters[u]) > 0 {
			var atoms []string
			for _, ai := range p.filters[u] {
				atoms = append(atoms, p.query.Atoms[ai].String())
			}
			fmt.Fprintf(&b, " filters={%s}", strings.Join(atoms, "; "))
		}
		b.WriteByte('\n')
		for _, c := range p.children[u] {
			walk(c, depth+1)
		}
	}
	walk(p.d.Root(), 0)
	return b.String()
}
