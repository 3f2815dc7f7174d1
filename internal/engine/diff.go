package engine

import (
	"context"
	"slices"

	"d2cq/internal/storage"
)

// This file is the O(change) half of BoundQuery.DiffFrom: instead of
// materialising both results and diffing them as sets, the diff is
// enumerated directly from the node deltas Rebind recorded, whose node
// relations are the bottom-up reduced bags B(u). The characterisation it
// rests on:
//
//	a solution of the new result is absent from the old one iff its
//	projection onto some node's bag lies in that node's added rows
//	(new B(u) ∖ old B(u)),
//
// because the join of all B(u) is the result and the projection of a
// solution onto a bag always lies in that bag's B(u): a solution all of
// whose bag projections lie in the old bags is a solution of the old result.
// (The removed side is the mirror image over the old nodes.) So the added
// solutions are enumerated by walking the decomposition from each changed
// node's added rows — up the tree probing parents on the shared columns,
// then down the remaining nodes exactly like the ordinary enumeration — and
// likewise for removals over the old nodes. An added row need not join
// anything above it, so the upward probe may find no parent row and the walk
// ends there; the downward part never dead-ends, as every row of B(u) has a
// partner in B of each child. Both walks read maintained nodes, whose
// groupings serve every probe: the receiver's, and the predecessor's — or,
// when that is a fresh Bind, its nodes as the first Rebind converted them.
// The cost is O(per-node change × depth + |result diff| × tree), never
// O(|result|).
//
// A solution whose projections land in the added rows of several changed
// nodes would be enumerated once per node; the skip check below assigns each
// solution to the first changed node (in node order) that covers it, which
// both dedups and keeps the two sides exactly disjoint.

// grouping is B(u) grouped on some of its columns: get returns the rows
// carrying key, one contiguous bucket (none when no row does).
type grouping interface {
	get(key []Value) []Value
}

// parentIndex and childIndex are a maintained node's groupings, byParent and
// up[k], as groupings.
type (
	parentIndex storage.PMap[keyGroup]
	childIndex  storage.PMap[[]Value]
)

func (g *parentIndex) get(key []Value) []Value {
	kg, _ := (*storage.PMap[keyGroup])(g).Get(key)
	return kg.rows
}

func (g *childIndex) get(key []Value) []Value {
	rows, _ := (*rowIndex)(g).Get(key)
	return rows
}

// probe returns the walk's visit of node u: with k < 0 reached from its
// parent — the walk down, where a key read off a row of B(parent) always
// finds rows — and otherwise from its k-th child join — the walk up, which
// may find none, and which only a maintained state takes. The rows carrying
// the key form one contiguous bucket: of Bind's layout, or held by the
// maintained node's persistent grouping. A node that shares no column with
// the one it is reached from is a cross product with what is assigned
// already, walked whole: off Bind's relation, or the maintained set.
func (es *enumState) probe(u, k int) walkStep {
	p := es.plan
	st := walkStep{write: p.bagVids[u]}
	pos, vids := p.sharedPos[u], p.sharedVids[u]
	if k >= 0 {
		pos, vids = p.childJoins[u][k].uPos, make([]int, len(p.childJoins[u][k].uPos))
		for j, x := range pos {
			vids[j] = p.bagVids[u][x]
		}
	}
	switch {
	case len(pos) == 0 && es.m == nil:
		st.rows = es.rels[u]
	case len(pos) == 0:
		st.set = es.m.nodes[u].sup
	case es.m == nil:
		st.group, st.key = &es.groups[u], vids
	case k < 0:
		st.group, st.key = (*parentIndex)(es.m.nodes[u].byParent), vids
	default:
		st.group, st.key = (*childIndex)(es.m.nodes[u].up[k]), vids
	}
	return st
}

// walkStep is one node visit of a walk: every row of rows, or of the
// persistent set set, or the rows of group carrying the values at the key
// vertex ids. write maps every column to its hypergraph vertex id.
type walkStep struct {
	rows  *Relation
	set   *storage.PMap[int64]
	group grouping
	key   []int
	write []int
}

// enumerateVia streams every solution whose projection onto node v's bag is
// a row of first (first.write is set here). The walk visits v first, then v's
// ancestors up to the root — probing each parent on the columns it shares
// with the child below, which by the running-intersection property are
// exactly the already-assigned variables of the parent's bag — and then the
// remaining nodes in pre-order, probing each by its parent key. yield
// receives the full vertex assignment (reused between calls;
// asg[:len(Vars())] is the output row); returning false stops the
// enumeration. first's rows must lie in the state's B(v). A row no ancestor
// row joins yields nothing, at the cost of the probes up to where the walk
// ends; below the path the walk never dead-ends, as every row of B(u) has a
// partner in B of each child. Only a maintained state starts below the root.
func (es *enumState) enumerateVia(ctx context.Context, v int, first walkStep, yield func(asg []Value) bool) error {
	p := es.plan
	first.write = p.bagVids[v]
	steps := make([]walkStep, 1, p.d.Nodes())
	steps[0] = first
	onPath := make([]bool, p.d.Nodes())
	onPath[v] = true
	for w := v; p.d.Parent[w] >= 0; w = p.d.Parent[w] {
		u := p.d.Parent[w]
		k := slices.IndexFunc(p.childJoins[u], func(cj childJoin) bool { return cj.child == w })
		steps = append(steps, es.probe(u, k))
		onPath[u] = true
	}
	for _, u := range p.pre {
		if !onPath[u] {
			steps = append(steps, es.probe(u, -1))
		}
	}
	return walk(ctx, p.h.NV(), steps, yield)
}

// walk streams every assignment of nv vertices that takes one row of each
// step in turn, each step's rows agreeing with what the steps before it
// assigned (see enumerateVia).
func walk(ctx context.Context, nv int, steps []walkStep, yield func(asg []Value) bool) error {
	asg := make([]Value, nv)
	maxKey := 0
	for _, st := range steps {
		maxKey = max(maxKey, len(st.key))
	}
	keyBuf := make([]Value, maxKey)
	var yielded int
	stop := false
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(steps) {
			yielded++
			if yielded&0x3f == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if !yield(asg) {
				stop = true
			}
			return nil
		}
		st := &steps[i]
		if st.set != nil {
			var err error
			st.set.Range(func(row []Value, _ int64) bool {
				for j, vid := range st.write {
					asg[vid] = row[j]
				}
				err = rec(i + 1)
				return err == nil && !stop
			})
			return err
		}
		a, rows, n := len(st.write), []Value(nil), 0
		if st.group != nil {
			kb := keyBuf[:len(st.key)]
			for j, vid := range st.key {
				kb[j] = asg[vid]
			}
			rows = st.group.get(kb)
			n = len(rows) / a // a probed node has columns: the key's
		} else {
			rows, n = st.rows.Data, st.rows.Len()
		}
		for r := 0; r < n; r++ {
			if stop {
				return nil
			}
			for j, vid := range st.write {
				asg[vid] = rows[r*a+j]
			}
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// nodeDiff is one node's recorded change: the rows entering (plus) and
// leaving (minus) B(u), with membership sets built only when a later changed
// node needs the dedup check.
type nodeDiff struct {
	u           int
	plus, minus *Relation
	plusSet     *storage.TupleMap
	minusSet    *storage.TupleMap
}

// diffIncremental computes the result diff from the node changes recorded
// on the maintained state bes (non-empty) against its predecessor pes, also
// maintained, per the characterisation at the top of the file. Both
// returned relations are sorted — the same order diffOracle produces, so the
// two paths are byte-comparable. The enumeration costs O(|result diff| ×
// tree).
func (b *BoundQuery) diffIncremental(ctx context.Context, pes, bes *enumState, diffs []nodeDiff) (added, removed *Relation, err error) {
	p := b.prep.plan
	added, removed = NewRelation(p.qvars...), NewRelation(p.qvars...)
	toSet := func(rel *Relation) *storage.TupleMap {
		if rel.Len() == 0 {
			return nil
		}
		m := storage.NewTupleMap(len(rel.Cols), rel.Len())
		for i := 0; i < rel.Len(); i++ {
			m.Insert(rel.Row(i))
		}
		return m
	}
	if len(diffs) > 1 {
		for i := range diffs {
			diffs[i].plusSet = toSet(diffs[i].plus)
			diffs[i].minusSet = toSet(diffs[i].minus)
		}
	}
	maxBag := 0
	for _, nd := range diffs {
		if len(p.bagVids[nd.u]) > maxBag {
			maxBag = len(p.bagVids[nd.u])
		}
	}
	projBuf := make([]Value, maxBag)
	proj := func(asg []Value, u int) []Value {
		vids := p.bagVids[u]
		pb := projBuf[:len(vids)]
		for j, vid := range vids {
			pb[j] = asg[vid]
		}
		return pb
	}
	nv := len(p.qvars)
	// Added side: new-state solutions through each changed node's entering
	// rows; a solution covered by several changed nodes is claimed by the
	// first one, so each appears exactly once.
	for i, nd := range diffs {
		if nd.plus.Len() == 0 {
			continue
		}
		err := bes.enumerateVia(ctx, nd.u, walkStep{rows: nd.plus}, func(asg []Value) bool {
			for j := 0; j < i; j++ {
				if s := diffs[j].plusSet; s != nil && s.Find(proj(asg, diffs[j].u)) >= 0 {
					return true
				}
			}
			added.addRow(asg[:nv])
			return true
		})
		if err != nil {
			return nil, nil, err
		}
	}
	// Removed side: the mirror image over the old nodes' leaving rows.
	for i, nd := range diffs {
		if nd.minus.Len() == 0 {
			continue
		}
		err := pes.enumerateVia(ctx, nd.u, walkStep{rows: nd.minus}, func(asg []Value) bool {
			for j := 0; j < i; j++ {
				if s := diffs[j].minusSet; s != nil && s.Find(proj(asg, diffs[j].u)) >= 0 {
					return true
				}
			}
			removed.addRow(asg[:nv])
			return true
		})
		if err != nil {
			return nil, nil, err
		}
	}
	b.prep.eng.maintRows.Add(uint64(added.Len() + removed.Len()))
	added.SortForDisplay()
	removed.SortForDisplay()
	return added, removed, nil
}

// relDiff computes new ∖ old (plus) and old ∖ new (minus) for two relations
// over the same columns, by whole-relation hash passes — the price of diffing
// without a recorded delta.
func relDiff(old, new *Relation) (plus, minus *Relation) {
	plus, minus = NewRelation(new.Cols...), NewRelation(old.Cols...)
	arity := len(old.Cols)
	if arity == 0 {
		if new.Len() > 0 && old.Len() == 0 {
			plus.AddEmpty()
		}
		if old.Len() > 0 && new.Len() == 0 {
			minus.AddEmpty()
		}
		return plus, minus
	}
	om := storage.NewTupleMap(arity, old.Len())
	for i := 0; i < old.Len(); i++ {
		om.Insert(old.Row(i))
	}
	for i := 0; i < new.Len(); i++ {
		row := new.Row(i)
		if om.Find(row) < 0 {
			plus.Add(row...)
		}
	}
	// |minus| = |old| − |old ∩ new| = |old| − (|new| − |plus|); a pure
	// insertion skips the second membership pass.
	if om.Len()-(new.Len()-plus.Len()) == 0 {
		return plus, minus
	}
	nm := storage.NewTupleMap(arity, new.Len())
	for i := 0; i < new.Len(); i++ {
		nm.Insert(new.Row(i))
	}
	for i := 0; i < old.Len(); i++ {
		row := old.Row(i)
		if nm.Find(row) < 0 {
			minus.Add(row...)
		}
	}
	return plus, minus
}

// diffOracle is the materialise-both-and-diff reference: correct for every
// plan shape with no cached state needed, at O(|old result| + |new result|)
// cost. DiffFrom falls back to it when the incremental path does not apply,
// and the differential tests hold the incremental path to byte-equality
// against it.
func (b *BoundQuery) diffOracle(ctx context.Context, prev *BoundQuery) (added, removed *Relation, err error) {
	cur, err := b.materialise(ctx)
	if err != nil {
		return nil, nil, err
	}
	old, err := prev.materialise(ctx)
	if err != nil {
		return nil, nil, err
	}
	added, removed = relDiff(old, cur)
	added.SortForDisplay()
	removed.SortForDisplay()
	return added, removed, nil
}
