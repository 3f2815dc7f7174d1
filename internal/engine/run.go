package engine

import (
	"context"
	"slices"
	"sort"
	"strings"

	"d2cq/internal/storage"
)

// edgeKey renders a sorted variable set as the cache key of its λ-edge
// relation.
func edgeKey(names []string) string { return strings.Join(names, "\x00") }

// joinInput is one input of a connected join: a relation, and for a child's
// message (nodeMessage) the message itself, with rel its keys — a semijoin
// probes msg instead of hashing rel again.
type joinInput struct {
	rel *Relation
	msg *storage.TupleMap
}

// joinConnected joins a node's cover relations and further inputs in a
// connected, smallest-first order. The join starts from the smallest cover
// relation; then an input whose columns are all bound already is applied as
// a semijoin, else the smallest input sharing a column is joined, and a cross
// product happens only when none does. An empty input empties the join at
// once, and the join stops as soon as it is empty; the empty result still
// carries every input column, so it projects like a full one. No cover at
// all is the nullary relation holding the empty tuple. Messages whose columns
// are bound once nothing else is left to join are not applied: the counting
// pass that follows (nodeMessage) probes every message of the node anyway,
// and drops the rows they would have filtered.
func joinConnected(cover []*Relation, more []joinInput) *Relation {
	rest := make([]joinInput, 0, len(cover)+len(more))
	for _, r := range cover {
		rest = append(rest, joinInput{rel: r})
	}
	rest = append(rest, more...)
	var acc *Relation
	if len(cover) == 0 {
		acc = NewRelation()
		acc.AddEmpty()
	} else {
		first := 0
		for i, r := range cover {
			if r.Len() < cover[first].Len() {
				first = i
			}
		}
		acc, rest = cover[first], append(rest[:first], rest[first+1:]...)
	}
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].rel.Len() < rest[j].rel.Len() })
	for len(rest) > 0 && acc.Len() > 0 && rest[0].rel.Len() > 0 {
		if onlyBoundMessages(rest, acc) {
			return acc
		}
		next, semi := -1, false
		for i, in := range rest {
			bound, shares := coveredBy(in.rel.Cols, acc)
			if bound {
				next, semi = i, true
				break
			}
			if shares && next < 0 {
				next = i
			}
		}
		if next < 0 {
			next = 0 // nothing shares a column: a cross product with the smallest
		}
		in := rest[next]
		rest = append(rest[:next], rest[next+1:]...)
		switch {
		case semi && len(in.rel.Cols) == 0:
			// A nullary input that is not empty constrains nothing.
		case semi:
			accPos, inPos := make([]int, len(in.rel.Cols)), make([]int, len(in.rel.Cols))
			for j, c := range in.rel.Cols {
				accPos[j], inPos[j] = acc.ColIndex(c), j
			}
			if in.msg != nil {
				acc = semijoinMap(acc, in.msg, accPos)
			} else {
				acc = semijoinOn(acc, in.rel, in.rel.Cols, accPos, inPos)
			}
		default:
			acc = Join(acc, in.rel)
		}
	}
	if len(rest) == 0 {
		return acc
	}
	// Stopped early on an empty input or join: every column, no rows.
	cols := append([]string(nil), acc.Cols...)
	for _, in := range rest {
		for _, c := range in.rel.Cols {
			if !slices.Contains(cols, c) {
				cols = append(cols, c)
			}
		}
	}
	return NewRelation(cols...)
}

// onlyBoundMessages reports whether every input left is a message whose
// columns r binds.
func onlyBoundMessages(rest []joinInput, r *Relation) bool {
	for _, in := range rest {
		if bound, _ := coveredBy(in.rel.Cols, r); in.msg == nil || !bound {
			return false
		}
	}
	return true
}

// coveredBy reports whether every column of cols is one of r's (bound) and
// whether at least one is (shares).
func coveredBy(cols []string, r *Relation) (bound, shares bool) {
	bound = true
	for _, c := range cols {
		if r.ColIndex(c) >= 0 {
			shares = true
		} else {
			bound = false
		}
	}
	return bound, shares
}

// materialiseReduced builds the relation of one node from its children's
// messages, which must be built already: the connected join of its λ
// relations (cover, from edgeRelations: an edge with private columns is its
// weighted projection), each child's message and its filter atoms, projected
// to the bag. A message whose columns are bound by then filters the join
// through its keys; otherwise its keys (the child projected onto the columns
// it shares with the node) are joined. Messages bound only at the end are
// left to nodeMessage, so the node is bottom-up reduced once that has run,
// without ever building the cover join on its own — a message that connects
// two cover relations sharing no variable is joined before they are, so a
// forced cross product never is. A projecting node (Plan.projects) also
// returns the derivation count of every bag tuple, the product of its joined
// row's weights summed over the rows, which the first Rebind loads
// (buildMaint); any other returns nil counts.
func materialiseReduced(p *Plan, inst *Instance, u int, cover []*Relation, groups []flatGroups) (rel *Relation, counts *storage.TupleMap) {
	kids := make([]joinInput, 0, len(p.childJoins[u])+len(p.filters[u]))
	for _, cj := range p.childJoins[u] {
		m := groups[cj.child].keys
		kids = append(kids, joinInput{rel: keysOf(m, cj.shared), msg: m})
	}
	for _, ai := range p.filters[u] {
		kids = append(kids, joinInput{rel: inst.AtomRels[ai]})
	}
	acc := joinConnected(cover, kids)
	if p.projects[u] {
		var weights []int
		for i, keep := range p.lambdaKeep[u] {
			if keep != nil {
				weights = append(weights, acc.ColIndex(weightCol(p.lambdaVars[u][i])))
			}
		}
		return projectCounts(acc, p.bagVars[u], weights)
	}
	return acc.Project(p.bagVars[u]), nil
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
// children strictly first: every node is built by materialiseReduced from its
// children's messages and reduced by nodeMessage, which computes its own
// message on the way and lays its rows out by it, so the relations start out
// bottom-up reduced and the counting DP comes out finished, flat.
func bindNodes(ctx context.Context, p *Plan, inst *Instance) ([]*Relation, *countState, error) {
	n := p.d.Nodes()
	covers, err := edgeRelations(ctx, p, inst)
	if err != nil {
		return nil, nil, err
	}
	rels := make([]*Relation, n)
	cs := &countState{groups: make([]flatGroups, n), counts: make([]*storage.TupleMap, n)}
	for _, u := range p.order {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		var rel *Relation
		rel, cs.counts[u] = materialiseReduced(p, inst, u, covers[u], cs.groups)
		var total int64
		rels[u], cs.groups[u], total = nodeMessage(p, u, rel, cs.groups)
		if p.d.Parent[u] < 0 {
			cs.total = total
		}
	}
	return rels, cs, nil
}

// edgeRelations builds the λ relations of the plan's nodes, node → one per λ
// edge: the edge's relation, or for an edge with private columns
// (Plan.lambdaKeep) its weighted projection onto the kept ones. Each
// distinct relation is built once and shared read-only across nodes — one
// projection serves every node that keeps the same columns of the edge.
func edgeRelations(ctx context.Context, p *Plan, inst *Instance) ([][]*Relation, error) {
	built := map[string]*Relation{}
	covers := make([][]*Relation, p.d.Nodes())
	for u := range covers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		covers[u] = make([]*Relation, len(p.lambdaVars[u]))
		for i, names := range p.lambdaVars[u] {
			k := edgeKey(names)
			r := built[k]
			if r == nil {
				r = inst.EdgeRelation(names)
				built[k] = r
			}
			if keep := p.lambdaKeep[u][i]; keep != nil {
				k += "\x01" + edgeKey(keep)
				if built[k] == nil {
					built[k] = weightedProjection(r, keep, weightCol(names))
				}
				r = built[k]
			}
			covers[u][i] = r
		}
	}
	return covers, nil
}

// weightCol names the weight column of the weighted projections of the λ
// edge over names; no parsed query variable can carry the name.
func weightCol(names []string) string { return "\x00#" + edgeKey(names) }

// weightedProjection returns r projected onto cols, which must all exist,
// with one more column, named w, holding each projected tuple's multiplicity
// — the number of r's rows it stands for.
func weightedProjection(r *Relation, cols []string, w string) *Relation {
	m := countProjection(r, cols, nil)
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
