package engine

import (
	"context"
	"slices"
	"sort"
	"strings"
	"sync"

	"d2cq/internal/storage"
)

// allNodes returns 0..n-1 (the work list of the materialisation pass).
func allNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

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
// relations, each child's message and its filter atoms, projected to the
// bag. A message whose columns are bound by then filters the join through its
// keys; otherwise its keys (the child projected onto the columns it shares
// with the node) are joined. Messages bound only at the end are left to
// nodeMessage, so the node is bottom-up reduced once that has run, without
// ever building the cover join on its own — a message that connects two
// cover relations sharing no variable is joined before they are, so a forced
// cross product never is.
func materialiseReduced(p *Plan, inst *Instance, u int, edge func([]string) *Relation, msgs []*storage.TupleMap) *Relation {
	return nodeJoin(p, inst, u, edge, msgInputs(p, u, msgs)).Project(p.bagVars[u])
}

// nodeJoin is the connected join of node u's inputs before the projection:
// its λ relations, one input per child (kids, in Plan.childJoins order) and
// its filter atoms, which it appends to kids.
func nodeJoin(p *Plan, inst *Instance, u int, edge func([]string) *Relation, kids []joinInput) *Relation {
	cover := make([]*Relation, len(p.lambdaVars[u]))
	for i, names := range p.lambdaVars[u] {
		cover[i] = edge(names)
	}
	for _, ai := range p.filters[u] {
		kids = append(kids, joinInput{rel: inst.AtomRels[ai]})
	}
	return joinConnected(cover, kids)
}

// msgInputs returns the messages of node u's children as join inputs: each
// message's keys, probed through the message itself. There is room left for
// the node's filters.
func msgInputs(p *Plan, u int, msgs []*storage.TupleMap) []joinInput {
	kids := make([]joinInput, len(p.childJoins[u]), len(p.childJoins[u])+len(p.filters[u]))
	for k, cj := range p.childJoins[u] {
		m := msgs[cj.child]
		kids[k] = joinInput{rel: keysOf(m, cj.shared), msg: m}
	}
	return kids
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

// projectCounts projects a relation onto cols, returning the multiplicity
// of every projected tuple — the derivation counts the incremental engine
// maintains under deltas.
func projectCounts(acc *Relation, cols []string) *storage.TupleMap {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = acc.ColIndex(c)
		if idx[i] < 0 {
			panic("engine: projection onto missing column " + c)
		}
	}
	m := storage.NewTupleMap(len(cols), acc.Len())
	buf := make([]Value, len(cols))
	for i := 0; i < acc.Len(); i++ {
		row := acc.Row(i)
		for j, x := range idx {
			buf[j] = row[x]
		}
		m.Add(buf, 1)
	}
	return m
}

// bindNodes materialises the node relations of the plan over inst bottom-up,
// children strictly first: every node is built by materialiseReduced from its
// children's messages and reduced by nodeMessage, which computes its own
// message on the way, so the relations start out bottom-up reduced and the
// counting DP comes out finished, flat: its messages, the slots of the
// reduced rows in them, and the total.
func bindNodes(ctx context.Context, p *Plan, inst *Instance) ([]*Relation, *countState, error) {
	getEdge, err := edgeRelations(ctx, p, inst, allNodes(p.d.Nodes()))
	if err != nil {
		return nil, nil, err
	}
	rels := make([]*Relation, p.d.Nodes())
	cs := &countState{msgs: make([]*storage.TupleMap, p.d.Nodes()), slots: make([][]int32, p.d.Nodes())}
	for _, u := range p.order {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		var total int64
		rels[u], cs.msgs[u], cs.slots[u], total = nodeMessage(p, u, materialiseReduced(p, inst, u, getEdge, cs.msgs), cs.msgs)
		if cs.msgs[u] == nil {
			cs.total = total
		}
	}
	return rels, cs, nil
}

// edgeRelations builds the λ edge relations of the given nodes, one per
// distinct variable set, and returns their lookup — shared read-only across
// nodes.
func edgeRelations(ctx context.Context, p *Plan, inst *Instance, nodes []int) (func([]string) *Relation, error) {
	edges := map[string]*Relation{}
	for _, u := range nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, names := range p.lambdaVars[u] {
			if k := edgeKey(names); edges[k] == nil {
				edges[k] = inst.EdgeRelation(names)
			}
		}
	}
	return func(names []string) *Relation { return edges[edgeKey(names)] }, nil
}

// nodeMessage runs the counting DP (Pichler & Skritek, Proposition 4.14) at
// node u over the node's relation rel, given the messages of all of u's
// children. The DP value of a row is its number of extensions to the
// variables introduced strictly below u: the product, over u's children, of
// the child's message value at the row's key. A non-root node's message
// groups its rows on the columns it shares with its parent, each key carrying
// the sum of its rows' values; the root sends none and returns the sum of its
// rows' values instead: |q(D)|. The rows whose key some child's message
// lacks are dropped, and kept is rel semijoined with every child — rel
// itself when no row drops; the message then holds exactly kept's keys and
// is the semijoin filter of the parent, and slots[i] is the message slot of
// kept's row i.
func nodeMessage(p *Plan, u int, rel *Relation, msgs []*storage.TupleMap) (kept *Relation, msg *storage.TupleMap, slots []int32, total int64) {
	if p.d.Parent[u] >= 0 {
		msg = storage.NewTupleMap(len(p.sharedPos[u]), rel.Len())
		slots = make([]int32, 0, rel.Len())
	}
	key := make([]Value, len(rel.Cols))
	kept = filterRows(rel, func(row []Value) bool {
		v := int64(1)
		for _, cj := range p.childJoins[u] {
			m := msgs[cj.child]
			s := m.Find(project(key, row, cj.uPos))
			if s < 0 {
				return false
			}
			v *= m.Val(s)
		}
		if msg == nil {
			total += v
		} else {
			slots = append(slots, msg.Add(project(key, row, p.sharedPos[u]), v))
		}
		return true
	})
	return kept, msg, slots, total
}

// countState is the cached counting DP of a BoundQuery: the total at the
// root and, built from scratch by Bind, the flat DP — every non-root node's
// message (nodeMessage) and every node row's slot in it, by which the
// enumeration indexes group the rows (buildEnumState). The first Rebind
// loads each message into its node's parent grouping (buildMaint), whose
// keys are the message's keys and whose values carry its sums; from then on
// Rebind maintains the sums there, beside the rows (regroup), and the state
// a maintained query caches is the total alone.
type countState struct {
	total int64

	msgs  []*storage.TupleMap // flat form: node → its message; nil for the root
	slots [][]int32           // flat form: node → its rows' message slots
}

// enumNode is the per-node enumeration state: the relation B(u),
// its rows grouped on the columns shared with the parent bag — keyed by the
// node's own message, which the parent's rows probe — and the hypergraph
// vertex ids to write each column to.
type enumNode struct {
	rel       *Relation
	idx       *keyGroups // nil for nodes with no parent-shared columns
	sharedVid []int      // vertex ids of the shared columns
	write     []int      // vertex id of every relation column
}

// enumState is the immutable, shareable part of an enumeration over the
// bottom-up reduced node relations: the per-node indexes, walked in the
// plan's pre-order. Building it is the per-evaluation cost the bound API caches away;
// the enumerate method allocates its own cursors, so one enumState serves any
// number of concurrent enumerations. It has two forms. Built from scratch it
// is flat: the relations with their rows grouped by message slot (nodes).
// Derived by Rebind it is maintained (m, see maintreduce.go): it holds the
// maintained nodes themselves, and the enumeration probes their persistent
// groupings directly — byParent going down, up going up — so it keeps no
// grouping of its own.
type enumState struct {
	plan *Plan

	// id names this state among its engine's (0: not a bound query's) and
	// parent the state it was derived from by update, whose recorded deltas
	// (enumMaint.delta) are against exactly that state. A name rather than a
	// pointer, so a chain of snapshots does not keep its whole past alive.
	id, parent uint64

	nodes []enumNode

	// up caches, per node and child join, the grouping of the *parent*
	// relation on the columns shared with that child —
	// the probe direction of enumerateVia's path walk, which is the reverse of
	// the enumNode groupings above. Flat form only, built lazily under upMu
	// (a maintained node keeps these groupings up to date as nodeState.up).
	upMu sync.Mutex
	up   [][]*keyGroups

	m *enumMaint
}

// buildEnumState groups every non-root node's relation on the columns shared
// with its parent bag; by TD connectedness those are exactly the columns
// constrained by the time the node is visited. The groups are keyed by the
// node's message msgs[u], and slots[u] gives each row's slot in it, so they
// are laid out without hashing a row. rels must carry the bag columns of the
// plan (the invariant of bindNodes).
func buildEnumState(p *Plan, rels []*Relation, msgs []*storage.TupleMap, slots [][]int32) *enumState {
	es := &enumState{plan: p, nodes: make([]enumNode, p.d.Nodes())}
	for u, rel := range rels {
		en := enumNode{rel: rel, write: p.bagVids[u], sharedVid: p.sharedVids[u]}
		if len(p.shared[u]) > 0 {
			g := groupSlots(msgs[u], slots[u])
			en.idx = &g
		}
		es.nodes[u] = en
	}
	return es
}

// enumerate streams every solution of the full CQ without materialising the
// join. The relations behind the state are bottom-up reduced: a row of B(u)
// may join no row of its parent, but the search starts at the root and every
// row it reaches has a partner in B of each child, so it never dead-ends and
// the delay between consecutive yields is bounded by the tree size. yield receives the assignment as values indexed parallel
// to plan.Vars(); the slice is reused between calls. Returning false from
// yield stops the enumeration early (enumerate then returns nil). The state
// is never written, so any number of enumerations may run concurrently over
// one enumState.
func (es *enumState) enumerate(ctx context.Context, yield func(row []Value) bool) error {
	p := es.plan
	if p.d.Nodes() == 0 {
		return nil
	}
	asg := make([]Value, p.h.NV())
	out := make([]Value, len(p.qvars))
	keyBuf := make([]Value, p.maxShared)
	var yielded int
	stop := false
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(p.pre) {
			yielded++
			if yielded&0x3f == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			// Vertex ids follow sorted variable order, so the assignment
			// is already the output row.
			copy(out, asg[:len(out)])
			if !yield(out) {
				stop = true
			}
			return nil
		}
		u := p.pre[i]
		if m := es.m; m != nil {
			// Maintained form: the rows to visit are a contiguous bucket —
			// of the persistent index on the parent-shared columns, or of the
			// listed relation for a node sharing none — except for the whole
			// root, which streams straight off its persistent set.
			write := p.bagVids[u]
			a := len(write)
			var rows []Value
			switch ns := m.nodes[u]; {
			case ns.byParent != nil:
				kb := keyBuf[:len(p.sharedVids[u])]
				for j, vid := range p.sharedVids[u] {
					kb[j] = asg[vid]
				}
				g, _ := ns.byParent.Get(kb)
				rows = g.rows
			case i == 0:
				var err error
				ns.sup.Range(func(row []Value, _ int64) bool {
					for j, vid := range write {
						asg[vid] = row[j]
					}
					err = rec(1)
					return err == nil && !stop
				})
				return err
			default:
				rows = es.flatB(u).Data
			}
			for off := 0; off+a <= len(rows); off += a {
				if stop {
					return nil
				}
				for j, vid := range write {
					asg[vid] = rows[off+j]
				}
				if err := rec(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		en := es.nodes[u]
		n := en.rel.Len()
		var rows []int32
		if en.idx != nil {
			kb := keyBuf[:len(en.sharedVid)]
			for j, vid := range en.sharedVid {
				kb[j] = asg[vid]
			}
			rows = en.idx.lookup(kb)
			n = len(rows)
		}
		for ri := 0; ri < n; ri++ {
			if stop {
				return nil
			}
			rowIdx := ri
			if rows != nil {
				rowIdx = int(rows[ri])
			}
			row := en.rel.Row(rowIdx)
			for j, vid := range en.write {
				asg[vid] = row[j]
			}
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}
