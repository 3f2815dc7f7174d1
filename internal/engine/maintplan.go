package engine

import (
	"slices"
	"strings"
)

// This file holds the one join planner of the nodes. A node's relation is
// its bottom-up reduced bag: the join of its inputs projected to the bag.
// They are its λ inputs — the atoms over its λ edges or, for an edge with
// private columns (Plan.lambdaKeep), its weighted projection: the atom
// projected onto the kept columns, each tuple with its multiplicity in a
// weight column — its filters, and one key set per child: the child's
// relation projected onto the columns it shares with the node. A filter or
// key set lies inside the bag, so it adds one derivation to a bag tuple that
// passes and none to one that does not; a derivation counts for the product
// of its weights. Key sets are numbered after the atoms (keyInput), weighted
// projections after them (weightedInput), and all are held alike.
//
// orderJoin orders a node's join behind one seed input: Bind runs it from
// the smallest λ input (joinInputs), the first Rebind once per input, over
// the sizes Bind saw (planMaintenance). When one input changes, the change
// of the node's relation is the input's delta joined through the OTHER
// inputs; deltaPlan fixes their probe order and the persistent index each
// probe uses, so maintaining the node costs the size of that delta-join and
// never a scan of an unchanged relation. A nullary input — a child sharing
// no column, a variable-free atom — is always fully bound, so every delta
// plan probes it first, and its own delta binds nothing: it joins the
// node's other inputs from a scan. A weighted projection keeps its weights
// as rows: an atom's delta becomes, per key whose multiplicity moved, its
// old row leaving and its new one entering (weightDelta), so only a weight
// crossing 0 adds or removes a key.

// weightedInput is one weighted projection among the inputs: of atom atom,
// onto the columns of the atom at keep.
type weightedInput struct {
	atom int
	keep []int
}

// deltaStep probes one input with the variables bound so far.
type deltaStep struct {
	atom    int   // the input probed: an atom, a key set (Plan.keyInput) or a weighted projection
	idx     int   // index into maintPlan.idxCols[atom], or stepMember / stepScan
	keyFrom []int // accumulated-row positions forming the probe key, in the input's column order
	extFrom []int // input-tuple positions whose (new) columns extend the accumulated row
}

const (
	stepMember = -1 // every column of the input is bound: a membership test on its tuple set
	stepScan   = -2 // no column is bound: a cross product with the whole input relation
)

// deltaPlan is the probe order for one changed input of one node. The
// accumulated row starts as the changed input's tuple (over its columns,
// Plan.atomVars) and grows by each step's extFrom columns to width; bagFrom
// projects the finished row onto the node's bag columns, and weights lists
// the positions of its weight columns.
type deltaPlan struct {
	steps   []deltaStep
	width   int
	bagFrom []int
	weights []int
}

// maintPlan is the maintenance half of a plan: the delta plans of every node
// and the indexes they probe, fixed by the first Rebind (buildMaint) and
// carried by every maintained state after it.
type maintPlan struct {
	deltaPlans [][]deltaPlan // node → per input of Plan.inputs[u]: the probe order when that input is the delta
	idxCols    [][][]int     // input → column subsets of its relation the delta plans probe; a weighted projection's first is every kept column
}

// weightCol names the weight column of the weighted projections of the λ
// edge over names; no parsed query variable can carry the name.
func weightCol(names []string) string { return weightPrefix + edgeKey(names) }

const weightPrefix = "\x00#"

func isWeightCol(c string) bool { return strings.HasPrefix(c, weightPrefix) }

// planInputs numbers the join inputs of every node (see the file comment).
func (p *Plan) planInputs() {
	q, d := p.query, p.d
	p.atomVars = make([][]string, p.weightedInput(0))
	p.directAtom = make([]bool, len(q.Atoms))
	atomKey := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		p.atomVars[i] = a.VarSet()
		p.directAtom[i] = directArgs(a, p.atomVars[i])
		atomKey[i] = edgeKey(p.atomVars[i])
	}
	for u := 0; u < d.Nodes(); u++ {
		p.atomVars[p.keyInput(u)] = p.shared[u]
	}
	p.inputs = make([][]int, d.Nodes())
	p.lambdaInputs = make([]int, d.Nodes())
	projections := map[string]int{} // atom and kept columns → input
	for u := 0; u < d.Nodes(); u++ {
		for e, names := range p.lambdaVars[u] {
			keep := p.lambdaKeep[u][e]
			for i := range q.Atoms {
				if atomKey[i] != edgeKey(names) {
					continue
				}
				if keep == nil {
					p.inputs[u] = append(p.inputs[u], i)
					continue
				}
				k := atomKey[i] + "\x01" + edgeKey(keep)
				in, ok := projections[k]
				if !ok {
					in = len(p.atomVars)
					projections[k] = in
					w := weightedInput{atom: i}
					for _, v := range keep {
						w.keep = append(w.keep, slices.Index(p.atomVars[i], v))
					}
					p.weighted = append(p.weighted, w)
					p.atomVars = append(p.atomVars, append(slices.Clip(keep), weightCol(names)))
				}
				p.inputs[u] = append(p.inputs[u], in)
			}
		}
		p.lambdaInputs[u] = len(p.inputs[u])
		p.inputs[u] = append(p.inputs[u], p.filters[u]...)
		for _, cj := range p.childJoins[u] {
			p.inputs[u] = append(p.inputs[u], p.keyInput(cj.child))
		}
	}
}

// keyInput is the input number of node u's key set: after the atoms.
func (p *Plan) keyInput(u int) int { return len(p.query.Atoms) + u }

// weightedInput is the input number of the j-th weighted projection: after
// the key sets.
func (p *Plan) weightedInput(j int) int { return p.keyInput(p.d.Nodes()) + j }

// orderJoin orders a join of inputs over the columns cols behind the input
// seed (-1: none, the join starts from the empty tuple): fully bound inputs
// first (pure filters, which only prune), then the one sharing the most
// columns bound already, and a cross product only when nothing connects; of
// equals, the smallest by sizes, then the first. A weight column is no join
// key: a weighted projection is fully bound once its kept columns are, and
// probed on them for its weight. index names the index a probe of input y
// on its columns at cols uses. schema is the columns of the finished join,
// the seed's first and then each step's new ones.
func orderJoin(cols [][]string, seed int, sizes []int, index func(y int, cols []int) int) (steps []deltaStep, schema []string) {
	done := make([]bool, len(cols))
	if seed >= 0 {
		done[seed] = true
		schema = slices.Clone(cols[seed])
	}
	for range cols {
		best, bestBound, bestFull := -1, 0, false
		for y, c := range cols {
			if done[y] {
				continue
			}
			bound, full := 0, true
			for _, v := range c {
				switch {
				case slices.Contains(schema, v):
					bound++
				case !isWeightCol(v):
					full = false
				}
			}
			if best < 0 || full && !bestFull || full == bestFull && (bound > bestBound || bound == bestBound && sizes[y] < sizes[best]) {
				best, bestBound, bestFull = y, bound, full
			}
		}
		if best < 0 {
			break
		}
		done[best] = true
		st, on := deltaStep{atom: best, idx: stepScan}, []int{}
		for c, v := range cols[best] {
			if at := slices.Index(schema, v); at >= 0 {
				st.keyFrom, on = append(st.keyFrom, at), append(on, c)
			} else {
				st.extFrom = append(st.extFrom, c)
				schema = append(schema, v)
			}
		}
		switch {
		case len(st.extFrom) == 0:
			st.idx = stepMember
		case bestFull || len(on) > 0:
			st.idx = index(best, on)
		}
		steps = append(steps, st)
	}
	return steps, schema
}

// planMaintenance fixes the delta plans of every node over its input
// relations ins (by input number; nil: empty), and the indexes they and
// weightDelta probe.
func (p *Plan) planMaintenance(ins []*Relation) *maintPlan {
	mp := &maintPlan{deltaPlans: make([][]deltaPlan, p.d.Nodes()), idxCols: make([][][]int, len(ins))}
	for j, w := range p.weighted {
		on := make([]int, len(w.keep))
		for c := range on {
			on[c] = c
		}
		mp.index(p.weightedInput(j), on)
	}
	for u, in := range p.inputs {
		cols, sizes := make([][]string, len(in)), make([]int, len(in))
		for y, i := range in {
			cols[y] = p.atomVars[i]
			if ins[i] != nil {
				sizes[y] = ins[i].Len()
			}
		}
		index := func(y int, cols []int) int { return mp.index(in[y], cols) }
		mp.deltaPlans[u] = make([]deltaPlan, len(in))
		for x := range in {
			steps, schema := orderJoin(cols, x, sizes, index)
			dp := deltaPlan{steps: steps, width: len(schema), bagFrom: make([]int, len(p.bagVars[u]))}
			for s := range steps {
				steps[s].atom = in[steps[s].atom]
			}
			for j, v := range p.bagVars[u] {
				dp.bagFrom[j] = slices.Index(schema, v)
			}
			for j, c := range schema {
				if isWeightCol(c) {
					dp.weights = append(dp.weights, j)
				}
			}
			mp.deltaPlans[u][x] = dp
		}
	}
	return mp
}

// index returns the slot of the index of an input's relation on cols within
// idxCols[atom], registering it on first request — one index serves every
// delta plan that probes the same columns.
func (mp *maintPlan) index(atom int, cols []int) int {
	for i, have := range mp.idxCols[atom] {
		if slices.Equal(have, cols) {
			return i
		}
	}
	mp.idxCols[atom] = append(mp.idxCols[atom], cols)
	return len(mp.idxCols[atom]) - 1
}
