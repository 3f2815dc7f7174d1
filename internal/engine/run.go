package engine

import (
	"context"
	"slices"
	"strings"

	"d2cq/internal/storage"
)

// edgeKey renders a sorted variable set as one string, a map key.
func edgeKey(names []string) string { return strings.Join(names, "\x00") }

// joinInputs joins a node's input relations rels, the first lambdas of them
// its λ inputs, in the order orderJoin gives from the smallest λ input (from
// the empty tuple when there is none) over their sizes. A step whose columns
// are all bound is a semijoin — through msgs[i] when input i is a child's key
// set — and any other a hash join or cross product. The join stops at the
// first empty input or result, which still carries every input column. Key
// sets left to the end are not applied: nodeMessage probes every message of
// the node anyway, and drops the rows they would have filtered.
func joinInputs(rels []*Relation, lambdas int, msgs []*storage.TupleMap) *Relation {
	cols, sizes, seed := make([][]string, len(rels)), make([]int, len(rels)), -1
	for i, r := range rels {
		cols[i], sizes[i] = r.Cols, r.Len()
		if i < lambdas && (seed < 0 || sizes[i] < sizes[seed]) {
			seed = i
		}
	}
	steps, schema := orderJoin(cols, seed, sizes, func(int, []int) int { return 0 })
	if slices.Contains(sizes, 0) {
		return NewRelation(schema...)
	}
	for len(steps) > 0 && msgs[steps[len(steps)-1].atom] != nil && steps[len(steps)-1].idx == stepMember {
		steps = steps[:len(steps)-1]
	}
	acc := NewRelation()
	acc.AddEmpty()
	if seed >= 0 {
		acc = rels[seed]
	}
	for _, st := range steps {
		if acc.Len() == 0 {
			return NewRelation(schema...)
		}
		in := rels[st.atom]
		switch {
		case st.idx != stepMember:
			acc = Join(acc, in)
		case msgs[st.atom] != nil:
			acc = semijoinMap(acc, msgs[st.atom], st.keyFrom)
		default:
			acc = semijoinOn(acc, in, in.Cols, st.keyFrom, colIndexes(in, in.Cols))
		}
	}
	return acc
}

// keysOf returns a message's keys as a relation over cols, the columns they
// range over, sharing the message's storage.
func keysOf(m *storage.TupleMap, cols []string) *Relation {
	r := &Relation{Cols: cols}
	switch {
	case len(cols) > 0:
		r.Data = m.Keys()
	case m.Len() > 0:
		r.AddEmpty()
	}
	return r
}

// bindNodes materialises the node relations of the plan over inst bottom-up,
// children strictly first. A node's relation is the join of its inputs
// (joinInputs) — the atom relations, the weighted projections, built once
// each, and its children's key sets — projected to the bag. A key set that
// connects two λ inputs sharing no variable is joined before they are, so a
// forced cross product never is. A node that projects the join keeps the
// derivation count of every bag tuple, which the first Rebind loads
// (buildMaint). nodeMessage then reduces the node, computing its message,
// its key set, and laying its rows out by it, so the relations start out
// bottom-up reduced and the counting DP comes out finished, flat.
func bindNodes(ctx context.Context, p *Plan, inst *Instance) ([]*Relation, *countState, error) {
	n := p.d.Nodes()
	ins := inputRelations(p, inst.AtomRels)
	msgs := make([]*storage.TupleMap, len(ins))
	rels := make([]*Relation, n)
	cs := &countState{groups: make([]flatGroups, n), counts: make([]*storage.TupleMap, n)}
	for _, u := range p.order {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		in, bag := p.inputs[u], p.bagVars[u]
		rs, ms := make([]*Relation, len(in)), make([]*storage.TupleMap, len(in))
		for y, i := range in {
			rs[y], ms[y] = ins[i], msgs[i]
		}
		rel := joinInputs(rs, p.lambdaInputs[u], ms)
		if len(rel.Cols) == len(bag) {
			rel = rel.Project(bag)
		} else {
			rel, cs.counts[u] = projectCounts(rel, bag)
		}
		var total int64
		rels[u], cs.groups[u], total = nodeMessage(p, u, rel, cs.groups)
		if p.d.Parent[u] < 0 {
			cs.total = total
		} else {
			k := p.keyInput(u)
			msgs[k] = cs.groups[u].keys
			ins[k] = keysOf(msgs[k], p.shared[u])
		}
	}
	return rels, cs, nil
}

// inputRelations returns the flat relations of the plan's inputs, by input
// number, over the atom relations atoms: the atoms' own and each weighted
// projection's, with no key set yet.
func inputRelations(p *Plan, atoms []*Relation) []*Relation {
	ins := make([]*Relation, len(p.atomVars))
	copy(ins, atoms)
	for j, w := range p.weighted {
		in := p.weightedInput(j)
		cols := p.atomVars[in]
		ins[in] = weightedProjection(atoms[w.atom], cols[:len(cols)-1], cols[len(cols)-1])
	}
	return ins
}

// weightedProjection returns r projected onto cols, which must all exist,
// with one more column, named w, holding each projected tuple's multiplicity
// — the number of r's rows it stands for.
func weightedProjection(r *Relation, cols []string, w string) *Relation {
	m := countProjection(r, cols)
	out := NewRelation(append(slices.Clip(cols), w)...)
	out.Data = make([]Value, 0, m.Len()*len(out.Cols))
	for s := int32(0); int(s) < m.Len(); s++ {
		out.Data = append(append(out.Data, m.Key(s)...), Value(m.Val(s)))
	}
	return out
}

// nodeMessage runs the counting DP (Pichler & Skritek, Proposition 4.14) at
// node u over the node's relation rel, given the groupings of all of u's
// children, whose keys are their messages. The DP value of a row is its
// number of extensions to the variables introduced strictly below u: the
// product, over u's children, of the child's message value at the row's key.
// The rows whose key some child's message lacks are dropped; the others are
// kept, which is rel semijoined with every child. A non-root node's message
// groups the kept rows on the columns it shares with its parent, each key
// carrying the sum of its rows' values, and the rows are laid out in the
// message's buckets, bucket s the rows of key s (groupBySlot): the message
// holds exactly the kept rows' keys and is the semijoin filter of the parent.
// The root sends none: its kept rows stay in rel's order, and total is the
// sum of their values, |q(D)|.
func nodeMessage(p *Plan, u int, rel *Relation, groups []flatGroups) (kept *Relation, g flatGroups, total int64) {
	key := make([]Value, len(rel.Cols))
	value := func(row []Value) (int64, bool) {
		v := int64(1)
		for _, cj := range p.childJoins[u] {
			m := groups[cj.child].keys
			s := m.Find(project(key, row, cj.uPos))
			if s < 0 {
				return 0, false
			}
			v *= m.Val(s)
		}
		return v, true
	}
	if p.d.Parent[u] < 0 {
		kept = filterRows(rel, func(row []Value) bool {
			v, ok := value(row)
			total += v
			return ok
		})
		return kept, flatGroups{}, total
	}
	msg := storage.NewTupleMap(len(p.sharedPos[u]), rel.Len())
	slots := make([]int32, rel.Len())
	for i := range slots {
		row := rel.Row(i)
		if v, ok := value(row); ok {
			slots[i] = msg.Add(project(key, row, p.sharedPos[u]), v)
		} else {
			slots[i] = -1
		}
	}
	rows, start := groupBySlot(rel, slots, msg.Len())
	return &Relation{Cols: rel.Cols, Data: rows}, flatGroups{keys: msg, start: start, rows: rows, a: len(rel.Cols)}, 0
}

// countState is the cached counting DP of a BoundQuery: the total at the
// root and, built from scratch by Bind, the flat DP. groups[u] is B(u) laid
// out in the buckets of its message (nodeMessage): its keys are the message,
// each with its sum, and bucket s holds the rows of key s — the parent-key
// grouping the enumeration probes and the first Rebind loads into the node's
// maintained one (buildMaint), which from then on carries the sums beside the
// rows (regroup), so the state a maintained query caches is the total alone.
// counts[u] holds a projecting node's derivation counts, which only that
// first Rebind reads.
type countState struct {
	total int64

	groups []flatGroups        // flat form: node → B(u) by parent key; none for the root
	counts []*storage.TupleMap // flat form: node → its rows' derivation counts; nil unless it projects
}

// enumState is the immutable, shareable part of an enumeration over the
// bottom-up reduced node relations B(u), walked in the plan's pre-order. The
// enumerate method allocates its own cursors, so one enumState serves any
// number of concurrent enumerations. It has two forms, and in both the walk
// reads each node's rows as contiguous buckets (probe). The flat form is a
// view of Bind's nodes, laid out by parent key already (countState.groups).
// Derived by Rebind it is maintained (m, see maintreduce.go): it holds the
// maintained nodes themselves, and the walk probes their persistent
// groupings — byParent going down, up going up.
type enumState struct {
	plan *Plan

	// id names this state among its engine's and parent the state it was
	// derived from by update, whose recorded deltas (enumMaint.delta) are
	// against exactly that state. A name rather than a pointer, so a chain of
	// snapshots does not keep its whole past alive.
	id, parent uint64

	// The flat form: B(u) as a relation, and grouped by parent key.
	rels   []*Relation
	groups []flatGroups

	m *enumMaint
}

// enumerate streams every solution of the full CQ without materialising the
// join: the walk of enumerateVia from the whole root. yield receives the
// assignment as values indexed parallel to plan.Vars(); the slice is reused
// between calls. Returning false from yield stops the enumeration early
// (enumerate then returns nil).
func (es *enumState) enumerate(ctx context.Context, yield func(row []Value) bool) error {
	p := es.plan
	out := make([]Value, len(p.qvars))
	return es.enumerateVia(ctx, p.pre[0], es.probe(p.pre[0], -1), func(asg []Value) bool {
		// Vertex ids follow sorted variable order, so the assignment starts
		// with the output row.
		copy(out, asg)
		return yield(out)
	})
}
