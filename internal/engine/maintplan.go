package engine

import "slices"

// This file is the plan-time half of incremental maintenance. A node's
// relation is its bottom-up reduced bag: the join of its input relations
// projected to the bag. The inputs are every atom over one of the node's λ
// edges, the atoms filtered at the node, and one key set per child — the
// child's relation projected onto the columns it shares with the node.
// Filters and key sets join like any other input: their variables lie inside
// the bag, so they contribute exactly one derivation to a bag tuple that
// passes and none to one that does not. An atom a λ edge below the node
// enforces is no filter of it (NewPlan): its changes reach the node through
// the key sets on the way up. A key set is numbered after the
// atoms (Plan.keyInput) and held like an atom, so everything below serves
// both. When one input changes, the change of the node's relation is the
// input's delta joined through the OTHER inputs; deltaPlan fixes, per (node,
// changed input), the order those inputs are probed in and which persistent
// index of each is used, so maintaining the node costs the size of that
// delta-join and never a scan of an unchanged relation. A child's key set
// probed through an index is what connects a cover whose atoms share no
// variable. A child sharing no column has a nullary key set, holding the
// empty tuple while the child has a row: always fully bound, so every delta
// plan probes it first and a node it holds empty costs O(delta). Its own
// delta — the child emptied or filled — binds nothing, so it joins the
// node's other inputs from a scan: the whole node enters or leaves.

// deltaStep probes one input with the variables bound so far.
type deltaStep struct {
	atom    int   // the input probed: an atom, or a key set (Plan.keyInput)
	idx     int   // index into Plan.atomIdxCols[atom], or stepMember / stepScan
	keyFrom []int // accumulated-row positions forming the probe key, in index column order
	extFrom []int // input-tuple positions whose (new) variables extend the accumulated row
}

const (
	stepMember = -1 // every variable of the input is bound: a membership test on its tuple set
	stepScan   = -2 // no variable is bound: a cross product with the whole input relation
)

// deltaPlan is the probe order for one changed input of one node. The
// accumulated row starts as the changed input's tuple (over its columns,
// Plan.atomVars) and grows by each step's extFrom columns to width; bagFrom
// projects the finished row onto the node's bag columns.
type deltaPlan struct {
	steps   []deltaStep
	width   int
	bagFrom []int
}

// planMaintenance derives the maintenance plan from the evaluation plan
// already in p. Queries with a variable-free atom or an empty bag keep
// maintainable=false: their relations are nullary (0 or 1 rows), which the
// tuple-keyed maintenance state does not represent. Rebind binds those — and
// naive and ground plans, which have no decomposition state at all — afresh.
func (p *Plan) planMaintenance() {
	q, d := p.query, p.d
	n := len(q.Atoms) + d.Nodes()
	p.atomVars = make([][]string, n)
	p.directAtom = make([]bool, len(q.Atoms))
	atomKey := make([]string, len(q.Atoms))
	p.maintainable = true
	for i, a := range q.Atoms {
		p.atomVars[i] = a.VarSet()
		p.directAtom[i] = directArgs(a, p.atomVars[i])
		atomKey[i] = edgeKey(p.atomVars[i])
		if len(p.atomVars[i]) == 0 {
			p.maintainable = false
		}
	}
	for u := 0; u < d.Nodes(); u++ {
		p.atomVars[p.keyInput(u)] = p.shared[u]
		if len(p.bagVars[u]) == 0 {
			p.maintainable = false
		}
	}
	if !p.maintainable {
		return
	}
	p.inputs = make([][]int, d.Nodes())
	p.deltaPlans = make([][]deltaPlan, d.Nodes())
	p.projects = make([]bool, d.Nodes())
	p.atomIdxCols = make([][][]int, n)
	for u := 0; u < d.Nodes(); u++ {
		lambda := map[string]bool{}
		for _, names := range p.lambdaVars[u] {
			lambda[edgeKey(names)] = true
		}
		for i := range q.Atoms {
			if lambda[atomKey[i]] {
				p.inputs[u] = append(p.inputs[u], i)
			}
		}
		p.inputs[u] = append(p.inputs[u], p.filters[u]...)
		for _, cj := range p.childJoins[u] {
			p.inputs[u] = append(p.inputs[u], p.keyInput(cj.child))
		}
		joined := map[string]bool{}
		for _, i := range p.inputs[u] {
			for _, v := range p.atomVars[i] {
				joined[v] = true
			}
		}
		p.projects[u] = len(joined) > len(p.bagVars[u])
		p.deltaPlans[u] = make([]deltaPlan, len(p.inputs[u]))
		for x := range p.inputs[u] {
			p.deltaPlans[u][x] = p.planDelta(u, x)
		}
	}
}

// keyInput is the input number of node u's key set: after the atoms.
func (p *Plan) keyInput(u int) int { return len(p.query.Atoms) + u }

// planDelta orders the other inputs of node u behind changed input x:
// greedily the input sharing the most variables with what is already bound,
// fully bound inputs (pure membership filters, which only prune) first, so a
// cross product is taken only when nothing connected is left.
func (p *Plan) planDelta(u, x int) deltaPlan {
	inputs := p.inputs[u]
	schema := append([]string(nil), p.atomVars[inputs[x]]...)
	pos := func(name string) int {
		for i, c := range schema {
			if c == name {
				return i
			}
		}
		return -1
	}
	done := make([]bool, len(inputs))
	done[x] = true
	var dp deltaPlan
	for range len(inputs) - 1 {
		best, bestBound, bestFull := -1, -1, false
		for y, i := range inputs {
			if done[y] {
				continue
			}
			bound := 0
			for _, v := range p.atomVars[i] {
				if pos(v) >= 0 {
					bound++
				}
			}
			full := bound == len(p.atomVars[i])
			if best < 0 || (full && !bestFull) || (full == bestFull && bound > bestBound) {
				best, bestBound, bestFull = y, bound, full
			}
		}
		done[best] = true
		atom := inputs[best]
		st := deltaStep{atom: atom}
		var cols []int
		for c, v := range p.atomVars[atom] {
			if at := pos(v); at >= 0 {
				cols = append(cols, c)
				st.keyFrom = append(st.keyFrom, at)
			} else {
				st.extFrom = append(st.extFrom, c)
			}
		}
		switch {
		case bestFull:
			st.idx = stepMember
		case len(cols) == 0:
			st.idx = stepScan
		default:
			st.idx = p.atomIndex(atom, cols)
		}
		for _, c := range st.extFrom {
			schema = append(schema, p.atomVars[atom][c])
		}
		dp.steps = append(dp.steps, st)
	}
	dp.width = len(schema)
	dp.bagFrom = make([]int, len(p.bagVars[u]))
	for j, v := range p.bagVars[u] {
		dp.bagFrom[j] = pos(v)
	}
	return dp
}

// atomIndex returns the slot of the index of an input's relation on cols
// within atomIdxCols[atom], registering it on first request — one index
// serves every delta plan that probes the same columns.
func (p *Plan) atomIndex(atom int, cols []int) int {
	for i, have := range p.atomIdxCols[atom] {
		if slices.Equal(have, cols) {
			return i
		}
	}
	p.atomIdxCols[atom] = append(p.atomIdxCols[atom], cols)
	return len(p.atomIdxCols[atom]) - 1
}
