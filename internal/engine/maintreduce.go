package engine

import (
	"sync/atomic"

	"d2cq/internal/storage"
)

// This file maintains the cached full reduction and the counting DP under
// node deltas, in the manner of counting-based dynamic Yannakakis: instead of
// re-running semijoin passes over whole relations, every tree edge keeps the
// rows of either side grouped by the shared key, a key's presence on one side
// decides the liveness of the rows carrying it on the other, and a node delta
// is pushed through the tree by re-deciding exactly the rows whose inputs
// changed. With B(u) the bottom-up reduced rows of node u (rows of u with a
// partner in B of every child) and F(u) the fully reduced rows (rows of B(u)
// with a partner in F of the parent):
//
//	down[u]   groups B(u) by the columns shared with u's parent. It decides
//	          the parent's B-liveness going up, and is the probe of the
//	          top-down enumeration going down: reached from a row of F(parent),
//	          every row in the bucket is in F(u).
//	up[u][k]  groups F(u) by the columns shared with child k. It decides that
//	          child's F-liveness, and is the upward probe of enumerateVia.
//	keySum[u] sums the counting-DP values of u's rows by the columns shared
//	          with the parent; a parent row's value is the product of its
//	          children's sums at its keys.
//
// The rows of a parent carrying a key come from nodeState.byChild. Rows of the
// old snapshot are decided against the old maps, which stay untouched.

// enumMaint is the maintained form of an enumState.
type enumMaint struct {
	down       []*rowIndex   // nil for a node sharing no column with a parent
	all        []*rowSet     // B(u) for exactly those nodes (the root among them)
	up         [][]*rowIndex // nil entry for a child sharing no column
	bLen, fLen []int

	// delta[u] is the change of F(u) against the state this one was derived
	// from (nil: unchanged) — what DiffFrom against that state reads instead
	// of diffing relations.
	delta []*relDelta

	flatF []atomic.Pointer[Relation] // F(u) as a relation, listed on demand
}

// maintained returns the maintained form of es, converting a flat state (the
// from-scratch build: reduced relations and bottom-up intermediates) in
// O(its size). The result is not cached on es: the caller derives a
// successor from it and the flat state stays what its readers use.
func (es *enumState) maintained() *enumMaint {
	if es.m != nil {
		return es.m
	}
	p := es.plan
	n := p.d.Nodes()
	m := &enumMaint{
		down: make([]*rowIndex, n), all: make([]*rowSet, n), up: make([][]*rowIndex, n),
		bLen: make([]int, n), fLen: make([]int, n),
	}
	for u := 0; u < n; u++ {
		if len(p.shared[u]) > 0 {
			m.down[u] = indexRows(es.buRels[u], p.sharedPos[u])
		} else {
			m.all[u] = setOfRows(es.buRels[u])
		}
		m.up[u] = make([]*rowIndex, len(p.childJoins[u]))
		for k, cj := range p.childJoins[u] {
			if len(cj.uPos) > 0 {
				m.up[u][k] = indexRows(es.nodes[u].rel, cj.uPos)
			}
		}
		m.bLen[u], m.fLen[u] = es.buRels[u].Len(), es.nodes[u].rel.Len()
	}
	return m
}

// gather lists the rows of node u that a change below it can affect: the
// node's own entering and leaving rows, and the rows carrying a key that
// changed in some child. changedKeys yields, for child join k, the keys to
// look up (the empty key for a child sharing no column, which reaches every
// row of the node).
func gather(p *Plan, u int, node *nodeState, d *relDelta, changedKeys func(k int, yield func(key []Value))) workSet {
	var rows workSet
	if !d.empty() {
		rows.addRel(d.plus)
		rows.addRel(d.minus)
	}
	for k, cj := range p.childJoins[u] {
		changedKeys(k, func(key []Value) {
			if len(cj.uPos) == 0 {
				node.sup.Range(func(row []Value, _ int64) bool {
					rows.add(row)
					return true
				})
				return
			}
			bucket, _ := node.byChild[k].Get(key)
			rows.addBucket(bucket, len(p.bagVars[u]))
		})
	}
	return rows
}

// classify sorts the rows of a work set into a delta by their membership
// before and after. It is nil when no row changes membership.
func classify(cols []string, rows workSet, member func(cur bool, row []Value) bool) *relDelta {
	var d *relDelta
	rows.each(func(row []Value) {
		was, is := member(false, row), member(true, row)
		if was == is {
			return
		}
		if d == nil {
			d = newRelDelta(cols)
		}
		if is {
			d.plus.Add(row...)
		} else {
			d.minus.Add(row...)
		}
	})
	return d
}

// update derives the successor of a cached reduction under the node deltas
// dN (nil entries: node unchanged), given the node states before and after.
// Bottom-up, each node re-decides the B-membership of its own changed rows
// and of the rows carrying a key whose presence flipped in a child; top-down,
// the F-membership of the rows whose B-membership changed and of those
// carrying a key that flipped in the parent. The work is proportional to the
// rows re-decided. The F deltas are recorded on the successor under id, with
// es named as the parent.
func (es *enumState) update(oldNodes, newNodes []*nodeState, dN []*relDelta, id uint64, mc *maintCtx) *enumState {
	p := es.plan
	n := p.d.Nodes()
	o := es.maintained()
	down := make([]editor[[]Value], n)
	all := make([]editor[struct{}], n)
	up := make([][]editor[[]Value], n)
	for u := 0; u < n; u++ {
		if o.down[u] != nil {
			down[u] = edit(o.down[u])
		} else {
			all[u] = edit(o.all[u])
		}
		up[u] = make([]editor[[]Value], len(o.up[u]))
		for k := range up[u] {
			if o.up[u][k] != nil {
				up[u][k] = edit(o.up[u][k])
			}
		}
	}
	m := &enumMaint{
		bLen: append([]int(nil), o.bLen...), fLen: append([]int(nil), o.fLen...),
		delta: make([]*relDelta, n), flatF: make([]atomic.Pointer[Relation], n),
	}
	keyBuf := make([]Value, es.maxShared) // every tree edge's key is some node's parent-shared columns

	// Membership of a row of node u in B and in F, before (cur=false) and
	// after: a row of u is in B iff each child has a B row under the row's
	// key, and in F iff moreover the parent has an F row under it. A tree
	// edge sharing no column has one (empty) key, present iff the other side
	// has any row at all.
	inB := func(cur bool, u int, row []Value) bool {
		nodes, lens := oldNodes, o.bLen
		if cur {
			nodes, lens = newNodes, m.bLen
		}
		mc.rows++
		if !nodes[u].sup.Has(row) {
			return false
		}
		for _, cj := range p.childJoins[u] {
			has := lens[cj.child] > 0
			if len(cj.uPos) > 0 {
				groups := o.down[cj.child]
				if cur {
					groups = down[cj.child].cur
				}
				mc.rows++
				has = groups.Has(project(keyBuf, row, cj.uPos))
			}
			if !has {
				return false
			}
		}
		return true
	}
	inF := func(cur bool, u int, row []Value) bool {
		if !inB(cur, u, row) {
			return false
		}
		parent := p.d.Parent[u]
		if parent < 0 {
			return true
		}
		if len(p.shared[u]) == 0 {
			if cur {
				return m.fLen[parent] > 0
			}
			return o.fLen[parent] > 0
		}
		groups := o.up[parent][p.joinSlot[u]]
		if cur {
			groups = up[parent][p.joinSlot[u]].cur
		}
		mc.rows++
		return groups.Has(project(keyBuf, row, p.sharedPos[u]))
	}

	// Bottom-up: B deltas, applied to down/all; downLog[u] collects the keys
	// of down[u] the patch touched.
	dB := make([]*relDelta, n)
	downLog := make([]workSet, n)
	for _, u := range p.order {
		rows := gather(p, u, newNodes[u], dN[u], func(k int, yield func([]Value)) {
			c := p.childJoins[u][k].child
			if o.down[c] == nil {
				if (o.bLen[c] > 0) != (m.bLen[c] > 0) {
					yield(nil)
				}
				return
			}
			downLog[c].each(func(key []Value) {
				if o.down[c].Has(key) != down[c].cur.Has(key) {
					yield(key)
				}
			})
		})
		d := classify(p.bagVars[u], rows, func(cur bool, row []Value) bool { return inB(cur, u, row) })
		if d.empty() {
			continue
		}
		dB[u] = d
		m.bLen[u] += d.plus.Len() - d.minus.Len()
		if o.down[u] != nil {
			patchIndex(&down[u], p.sharedPos[u], d, &downLog[u], mc)
			continue
		}
		for r := 0; r < d.minus.Len(); r++ {
			all[u].w().Delete(d.minus.Row(r))
		}
		for r := 0; r < d.plus.Len(); r++ {
			all[u].w().Set(d.plus.Row(r), struct{}{})
		}
		mc.rows += uint64(d.rows())
	}

	// Top-down: F deltas, recorded and applied to up; upLog[u][k] collects
	// the keys of up[u][k] the patch touched.
	upLog := make([][]workSet, n)
	for i := len(p.order) - 1; i >= 0; i-- {
		u := p.order[i]
		upLog[u] = make([]workSet, len(p.childJoins[u]))
		var rows workSet
		if d := dB[u]; d != nil {
			rows.addRel(d.plus)
			rows.addRel(d.minus)
		}
		if parent := p.d.Parent[u]; parent >= 0 && o.down[u] == nil {
			if (o.fLen[parent] > 0) != (m.fLen[parent] > 0) {
				all[u].cur.Range(func(row []Value, _ struct{}) bool {
					rows.add(row)
					return true
				})
			}
		} else if parent >= 0 {
			k := p.joinSlot[u]
			upLog[parent][k].each(func(key []Value) {
				if o.up[parent][k].Has(key) != up[parent][k].cur.Has(key) {
					bucket, _ := down[u].cur.Get(key)
					rows.addBucket(bucket, len(p.bagVars[u]))
				}
			})
		}
		d := classify(p.bagVars[u], rows, func(cur bool, row []Value) bool { return inF(cur, u, row) })
		if d.empty() {
			continue
		}
		m.delta[u] = d
		m.fLen[u] += d.plus.Len() - d.minus.Len()
		for k, cj := range p.childJoins[u] {
			if len(cj.uPos) > 0 {
				patchIndex(&up[u][k], cj.uPos, d, &upLog[u][k], mc)
			}
		}
	}

	m.down, m.all, m.up = make([]*rowIndex, n), make([]*rowSet, n), make([][]*rowIndex, n)
	for u := 0; u < n; u++ {
		if o.down[u] != nil {
			m.down[u] = down[u].done(mc)
		} else {
			m.all[u] = all[u].done(mc)
		}
		m.up[u] = make([]*rowIndex, len(up[u]))
		for k := range up[u] {
			if o.up[u][k] != nil {
				m.up[u][k] = up[u][k].done(mc)
			}
		}
	}
	return &enumState{plan: p, pre: es.pre, maxShared: es.maxShared, id: id, parent: es.id, m: m}
}

// flatF returns F(u) as a relation. The flat form holds it; the maintained
// form lists it on first request — B(u) filtered by the parent's keys, O(B(u))
// — and caches it. Only paths that are O(relation) anyway ask: the diff
// against a snapshot other than the predecessor, and nodes joined to their
// parent by a cross product.
func (es *enumState) flatF(u int) *Relation {
	if es.m == nil {
		return es.nodes[u].rel
	}
	m, p := es.m, es.plan
	if rel := m.flatF[u].Load(); rel != nil {
		return rel
	}
	rel := NewRelation(p.bagVars[u]...)
	parent := p.d.Parent[u]
	switch {
	case m.all[u] != nil:
		if parent < 0 || m.fLen[parent] > 0 {
			rel = flatten(m.all[u], p.bagVars[u])
		}
	default:
		upIdx := m.up[parent][p.joinSlot[u]]
		m.down[u].Range(func(key, bucket []Value) bool {
			if upIdx.Has(key) {
				rel.Data = append(rel.Data, bucket...)
			}
			return true
		})
	}
	m.flatF[u].Store(rel)
	return rel
}

// sameF reports whether F(u) is provably the same set in m and o: the same
// grouping of B(u), decided by the same grouping of the parent's F.
func (m *enumMaint) sameF(o *enumMaint, p *Plan, u int) bool {
	if m.down[u] != o.down[u] || m.all[u] != o.all[u] {
		return false
	}
	parent := p.d.Parent[u]
	switch {
	case parent < 0:
		return true
	case m.all[u] != nil:
		return (m.fLen[parent] > 0) == (o.fLen[parent] > 0)
	default:
		k := p.joinSlot[u]
		return m.up[parent][k] == o.up[parent][k]
	}
}

// maintainedCounts returns the per-node key sums of cs, freezing a flat
// state's messages into persistent maps in O(their size).
func (cs *countState) maintainedCounts(p *Plan) []*storage.PMap[int64] {
	if cs.keySum != nil {
		return cs.keySum
	}
	keySum := make([]*storage.PMap[int64], p.d.Nodes())
	for u, msg := range cs.msgs {
		if msg == nil {
			continue
		}
		ks := storage.NewPMap[int64](len(p.sharedPos[u])).Edit()
		for slot := int32(0); int(slot) < msg.Len(); slot++ {
			if v := msg.Val(slot); v != 0 {
				ks.Set(msg.Key(slot), v)
			}
		}
		keySum[u] = ks.Freeze()
	}
	return keySum
}

// update derives the successor of a cached counting DP under the node deltas
// dN. The DP value of a node row is the product, over the node's children, of
// the child's key sum at the row's key — a function of the key sums alone, so
// no per-row vector is stored: bottom-up, each node re-evaluates its own
// changed rows and the rows carrying a key whose sum changed in a child,
// against the old sums and the new, and pushes the difference into its own
// key sum (the root: into the total). Work is proportional to the rows
// re-evaluated.
func (cs *countState) update(p *Plan, oldNodes, newNodes []*nodeState, dN []*relDelta, mc *maintCtx) *countState {
	n := p.d.Nodes()
	old := cs.maintainedCounts(p)
	sums := make([]editor[int64], n)
	for u := range sums {
		if old[u] != nil {
			sums[u] = edit(old[u])
		}
	}
	total := cs.total
	maxKey := 0
	for u := 0; u < n; u++ {
		if len(p.sharedPos[u]) > maxKey {
			maxKey = len(p.sharedPos[u])
		}
	}
	keyBuf := make([]Value, maxKey)
	value := func(cur bool, u int, row []Value) int64 {
		nodes := oldNodes
		if cur {
			nodes = newNodes
		}
		mc.rows++
		if !nodes[u].sup.Has(row) {
			return 0
		}
		v := int64(1)
		for _, cj := range p.childJoins[u] {
			ks := old[cj.child]
			if cur {
				ks = sums[cj.child].cur
			}
			mc.rows++
			s, _ := ks.Get(project(keyBuf, row, cj.uPos))
			if s == 0 {
				return 0
			}
			v *= s
		}
		return v
	}
	sumLog := make([]workSet, n)
	for _, u := range p.order {
		rows := gather(p, u, newNodes[u], dN[u], func(k int, yield func([]Value)) {
			c := p.childJoins[u][k].child
			sumLog[c].each(func(key []Value) {
				was, _ := old[c].Get(key)
				if is, _ := sums[c].cur.Get(key); is != was {
					yield(key)
				}
			})
		})
		rows.each(func(row []Value) {
			diff := value(true, u, row) - value(false, u, row)
			if diff == 0 {
				return
			}
			if old[u] == nil {
				total += diff
				return
			}
			key := project(keyBuf, row, p.sharedPos[u])
			sum, _ := sums[u].cur.Get(key)
			if sum += diff; sum == 0 {
				sums[u].w().Delete(key)
			} else {
				sums[u].w().Set(key, sum)
			}
			sumLog[u].add(key)
			mc.rows++
		})
	}
	ncs := &countState{total: total, keySum: make([]*storage.PMap[int64], n)}
	for u := range sums {
		if old[u] != nil {
			ncs.keySum[u] = sums[u].done(mc)
		}
	}
	return ncs
}
