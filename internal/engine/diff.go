package engine

import (
	"context"

	"d2cq/internal/storage"
)

// This file is the O(change) half of BoundQuery.DiffFrom: instead of
// materialising both results and diffing them as sets, the diff is
// enumerated directly from the per-node changes of the two cached
// enumeration states, whose node relations are the bottom-up reduced bags
// B(u). The characterisation it rests on:
//
//	a solution of the new result is absent from the old one iff its
//	projection onto some node's bag lies in that node's added rows
//	(new B(u) ∖ old B(u)),
//
// because the join of all B(u) is the result and the projection of a
// solution onto a bag always lies in that bag's B(u): a solution all of
// whose bag projections lie in the old bags is a solution of the old result.
// (The removed side is the mirror image over the old state.) So the added
// solutions are enumerated by walking the decomposition from each changed
// node's added rows — up the tree probing parents on the shared columns,
// then down the remaining nodes exactly like the ordinary enumeration — and
// likewise for removals over the old state. An added row need not join
// anything above it, so the upward probe may find no parent row and the walk
// ends there; the downward part never dead-ends, as every row of B(u) has a
// partner in B of each child. The cost is O(per-node change × depth +
// |result diff| × tree), never O(|result|).
//
// A solution whose projections land in the added rows of several changed
// nodes would be enumerated once per node; the skip check below assigns each
// solution to the first changed node (in node order) that covers it, which
// both dedups and keeps the two sides exactly disjoint.

// upIndex returns node u's rows grouped on the columns it shares with its
// k-th child join — the upward probe of enumerateVia over a flat state —
// building the grouping on first use and caching it on the state. (A
// maintained state needs no such build: Rebind keeps nodeState.up current.)
func (es *enumState) upIndex(u, k int) *keyGroups {
	p := es.plan
	es.upMu.Lock()
	defer es.upMu.Unlock()
	if es.up == nil {
		es.up = make([][]*keyGroups, p.d.Nodes())
	}
	if es.up[u] == nil {
		es.up[u] = make([]*keyGroups, len(p.childJoins[u]))
	}
	if es.up[u][k] == nil {
		g := groupRows(es.nodes[u].rel, p.childJoins[u][k].uPos)
		es.up[u][k] = &g
	}
	return es.up[u][k]
}

// viaStep is one node visit of enumerateVia's walk: either a full scan of
// scan's rows (the via rows themselves, or a node sharing no columns with
// what is already assigned) or a probe on the key vertex ids — of a flat
// grouping of rel's rows, or of a persistent grouping whose buckets hold the
// rows themselves (a node's up grouping, or its byParent). write maps every
// relation column to its hypergraph vertex id.
type viaStep struct {
	scan     *Relation
	idx      *keyGroups
	rel      *Relation
	group    *rowIndex
	byParent *storage.PMap[keyGroup]
	key      []int
	write    []int
}

// bucket returns the rows of a persistent grouping under key.
func (st *viaStep) bucket(key []Value) []Value {
	if st.group != nil {
		rows, _ := st.group.Get(key)
		return rows
	}
	g, _ := st.byParent.Get(key)
	return g.rows
}

// enumerateVia streams every solution whose projection onto node v's bag is
// one of via's rows (via's columns must be v's bag columns). The walk visits
// v first, then v's ancestors up to the root — probing each parent on the
// columns it shares with the child below, which by the running-intersection
// property are exactly the already-assigned variables of the parent's bag —
// and then the remaining nodes in ordinary pre-order. yield receives the
// full vertex assignment (reused between calls; asg[:len(Vars())] is the
// output row); returning false stops the enumeration. via's rows must lie in
// the state's B(v). A via row no ancestor row joins yields nothing, at the
// cost of the probes up to where the walk ends; below the path the walk never
// dead-ends, as in enumState.enumerate.
func (es *enumState) enumerateVia(ctx context.Context, v int, via *Relation, yield func(asg []Value) bool) error {
	p := es.plan
	steps := make([]viaStep, 0, p.d.Nodes())
	onPath := make([]bool, p.d.Nodes())
	steps = append(steps, viaStep{scan: via, write: p.bagVids[v]})
	onPath[v] = true
	for w := v; ; {
		u := p.d.Parent[w]
		if u < 0 {
			break
		}
		st := viaStep{write: p.bagVids[u]}
		for k, cj := range p.childJoins[u] {
			if cj.child != w {
				continue
			}
			if len(cj.uPos) > 0 {
				if es.m != nil {
					st.group = es.m.nodes[u].up[k]
				} else {
					st.idx = es.upIndex(u, k)
					st.rel = es.nodes[u].rel
				}
				st.key = make([]int, len(cj.uPos))
				for j, pos := range cj.uPos {
					st.key[j] = p.bagVids[u][pos]
				}
			}
			break
		}
		if st.key == nil {
			st.scan = es.flatB(u) // no shared columns: cartesian with the subtree below
		}
		steps = append(steps, st)
		onPath[u] = true
		w = u
	}
	for _, u := range p.pre {
		if onPath[u] {
			continue
		}
		st := viaStep{write: p.bagVids[u]}
		switch {
		case len(p.shared[u]) == 0:
			st.scan = es.flatB(u)
		case es.m != nil:
			st.byParent, st.key = es.m.nodes[u].byParent, p.sharedVids[u]
		default:
			st.idx, st.rel, st.key = es.nodes[u].idx, es.nodes[u].rel, p.sharedVids[u]
		}
		steps = append(steps, st)
	}
	asg := make([]Value, p.h.NV())
	maxKey := 0
	for _, st := range steps {
		if len(st.key) > maxKey {
			maxKey = len(st.key)
		}
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
		st := steps[i]
		if st.scan != nil {
			for ri := 0; ri < st.scan.Len(); ri++ {
				if stop {
					return nil
				}
				row := st.scan.Row(ri)
				for j, vid := range st.write {
					asg[vid] = row[j]
				}
				if err := rec(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		kb := keyBuf[:len(st.key)]
		for j, vid := range st.key {
			kb[j] = asg[vid]
		}
		if st.idx == nil { // a maintained state's persistent grouping
			bucket := st.bucket(kb)
			for a, off := len(st.write), 0; off+a <= len(bucket); off += a {
				if stop {
					return nil
				}
				for j, vid := range st.write {
					asg[vid] = bucket[off+j]
				}
				if err := rec(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		for _, rowIdx := range st.idx.lookup(kb) {
			if stop {
				return nil
			}
			row := st.rel.Row(int(rowIdx))
			for j, vid := range st.write {
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

// nodeDiff is the per-node change between two enumeration states: the rows
// entering (plus) and leaving (minus) B(u), with membership sets built only
// when a later changed node needs the dedup check.
type nodeDiff struct {
	u           int
	plus, minus *Relation
	plusSet     *storage.TupleMap
	minusSet    *storage.TupleMap
}

// nodeDiffs lists the nodes whose B(u) differs between the two states, with
// the rows entering and leaving. When bes was derived from pes by Rebind the
// deltas are already recorded on it and are simply read; between any other
// two states they are recomputed by diffing the B(u) of the nodes whose
// persistent maps differ, O(their size).
func nodeDiffs(pes, bes *enumState, mc *maintCtx) []nodeDiff {
	var diffs []nodeDiff
	if bes.m != nil && bes.parent == pes.id {
		for u, d := range bes.m.delta {
			if d != nil {
				diffs = append(diffs, nodeDiff{u: u, plus: d.plus, minus: d.minus})
			}
		}
		return diffs
	}
	for u := 0; u < bes.plan.d.Nodes(); u++ {
		if pes.m != nil && bes.m != nil && pes.m.nodes[u].sup == bes.m.nodes[u].sup {
			continue // the same persistent map: the same B(u)
		}
		old, cur := pes.flatB(u), bes.flatB(u)
		if old == cur {
			continue
		}
		mc.rows += uint64(old.Len() + cur.Len())
		if plus, minus := relDiff(old, cur); plus.Len()+minus.Len() > 0 {
			diffs = append(diffs, nodeDiff{u: u, plus: plus, minus: minus})
		}
	}
	return diffs
}

// diffIncremental computes the result diff from the per-node changes of the
// two cached enumeration states (nodeDiffs, non-empty), per the
// characterisation at the top of the file. Both returned relations are sorted
// — the same order diffOracle produces, so the two paths are byte-comparable.
// The enumeration costs O(|result diff| × tree).
func (b *BoundQuery) diffIncremental(ctx context.Context, pes, bes *enumState, diffs []nodeDiff, mc *maintCtx) (added, removed *Relation, err error) {
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
		err := bes.enumerateVia(ctx, nd.u, nd.plus, func(asg []Value) bool {
			for j := 0; j < i; j++ {
				if s := diffs[j].plusSet; s != nil && s.Find(proj(asg, diffs[j].u)) >= 0 {
					return true
				}
			}
			added.Add(asg[:nv]...)
			return true
		})
		if err != nil {
			return nil, nil, err
		}
	}
	// Removed side: the mirror image over the old state's leaving rows.
	for i, nd := range diffs {
		if nd.minus.Len() == 0 {
			continue
		}
		err := pes.enumerateVia(ctx, nd.u, nd.minus, func(asg []Value) bool {
			for j := 0; j < i; j++ {
				if s := diffs[j].minusSet; s != nil && s.Find(proj(asg, diffs[j].u)) >= 0 {
					return true
				}
			}
			removed.Add(asg[:nv]...)
			return true
		})
		if err != nil {
			return nil, nil, err
		}
	}
	mc.rows += uint64(added.Len() + removed.Len())
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
// plan shape (naive and ground included) with no cached state needed, at
// O(|old result| + |new result|) cost. DiffFrom falls back to it when the
// incremental path does not apply, and the differential tests hold the
// incremental path to byte-equality against it.
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
