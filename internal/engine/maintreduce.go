package engine

import (
	"slices"
	"sync/atomic"

	"d2cq/internal/storage"
)

// This file maintains the cached full reduction and the counting DP under
// node deltas, in the manner of counting-based dynamic Yannakakis: instead of
// re-running semijoin passes over whole relations, every tree edge keeps the
// rows of either side grouped by the shared key, a key's presence on one side
// decides the liveness of the rows carrying it on the other, and a node delta
// is pushed through the tree by re-deciding exactly the rows whose inputs
// changed. A node's maintained relation is already B(u), its bottom-up
// reduced rows (rows of u with a partner in B of every child: Rebind joins
// the children's key sets in), so only the top-down half is left: F(u), the
// fully reduced rows, is the rows of B(u) with a partner in F of the parent.
//
//	down[u]   groups B(u) by the columns shared with u's parent (the node's
//	          nodeState.byParent). It is the probe of the top-down
//	          enumeration: reached from a row of F(parent), every row in the
//	          bucket is in F(u).
//	up[u][k]  groups F(u) by the columns shared with child k. It decides that
//	          child's F-liveness, and is the upward probe of enumerateVia.
//	keySum[u] sums the counting-DP values of u's rows by the columns shared
//	          with the parent; a parent row's value is the product of its
//	          children's sums at its keys.
//
// A key's sum is positive exactly while the key is in the node's key set.
// Rows of the old snapshot are decided against the old maps, which stay
// untouched.

// enumMaint is the maintained form of an enumState.
type enumMaint struct {
	down []*rowIndex            // nil for a node sharing no column with a parent
	all  []*storage.PMap[int64] // B(u) for exactly those nodes (the root among them)
	up   [][]*rowIndex          // nil entry for a child sharing no column
	fLen []int

	// delta[u] is the change of F(u) against the state this one was derived
	// from (nil: unchanged) — what DiffFrom against that state reads instead
	// of diffing relations.
	delta []*relDelta

	flatF []atomic.Pointer[Relation] // F(u) as a relation, listed on demand
}

// maintained returns the F half of the maintained form of es (up and fLen),
// converting a flat state (the from-scratch build: reduced relations) in
// O(its size). The result is not cached on es: the caller derives a
// successor from it and the flat state stays what its readers use.
func (es *enumState) maintained() *enumMaint {
	if es.m != nil {
		return es.m
	}
	p := es.plan
	n := p.d.Nodes()
	m := &enumMaint{up: make([][]*rowIndex, n), fLen: make([]int, n)}
	for u := 0; u < n; u++ {
		m.up[u] = make([]*rowIndex, len(p.childJoins[u]))
		for k, cj := range p.childJoins[u] {
			if len(cj.uPos) > 0 {
				m.up[u][k] = indexRows(es.nodes[u].rel, cj.uPos)
			}
		}
		m.fLen[u] = es.nodes[u].rel.Len()
	}
	return m
}

// gather lists the rows of node u that a change below it can affect: the
// node's own entering and leaving rows, and the rows of its relation after
// the change that carry a key whose sum changed in some child. changedKeys
// yields, for child join k, those keys, and whether the sum crossed zero —
// whether the key entered or left the child's key set, in which case every
// row carrying it entered or left the node with it. Any other key is joined
// through the node's other inputs in their states after the change (inputs)
// along the delta plan of the child's key set; a child sharing no column
// reaches every row.
func gather(p *Plan, u int, node *nodeState, d *relDelta, inputs []*atomState, mc *maintCtx, changedKeys func(k int, yield func(key []Value, flipped bool))) workSet {
	var rows workSet
	if !d.empty() {
		rows.addRel(d.plus)
		rows.addRel(d.minus)
	}
	for k, cj := range p.childJoins[u] {
		var join *deltaJoin
		changedKeys(k, func(key []Value, flipped bool) {
			switch {
			case flipped:
			case len(cj.uPos) == 0:
				node.sup.Range(func(row []Value, _ int64) bool {
					rows.add(row)
					return true
				})
			default:
				if join == nil {
					x := slices.Index(p.inputs[u], p.keyInput(cj.child))
					join = newDeltaJoin(p, &p.deltaPlans[u][x], inputs, mc, rows.add)
				}
				join.run(key)
			}
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
// The node relations are B, so dN is the change of B; top-down, each node
// re-decides the F-membership of its rows whose B-membership changed and of
// those carrying a key that flipped in the parent. The work is proportional
// to the rows re-decided. The F deltas are recorded on the successor under
// id, with es named as the parent.
func (es *enumState) update(oldNodes, newNodes []*nodeState, dN []*relDelta, id uint64, mc *maintCtx) *enumState {
	p := es.plan
	n := p.d.Nodes()
	o := es.maintained()
	// up[p.pairOf[u][k]] edits o.up[u][k]; upLog alike collects the keys the
	// patch touched.
	up, upLog := make([]editor[[]Value], p.pairs), make([]workSet, p.pairs)
	for u := 0; u < n; u++ {
		for k, ix := range o.up[u] {
			up[p.pairOf[u][k]] = edit(ix)
		}
	}
	m := &enumMaint{
		fLen: append([]int(nil), o.fLen...), delta: make([]*relDelta, n), flatF: make([]atomic.Pointer[Relation], n),
	}
	keyBuf := make([]Value, es.maxShared) // every tree edge's key is some node's parent-shared columns

	// Membership of a row of node u in F, before (cur=false) and after: a row
	// of u is in F iff it is in B and the parent has an F row under the row's
	// key. A tree edge sharing no column has one (empty) key, present iff the
	// parent has any F row at all.
	inF := func(cur bool, u int, row []Value) bool {
		nodes := oldNodes
		if cur {
			nodes = newNodes
		}
		mc.rows++
		if !nodes[u].sup.Has(row) {
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
			groups = up[p.pairOf[parent][p.joinSlot[u]]].cur
		}
		mc.rows++
		return groups.Has(project(keyBuf, row, p.sharedPos[u]))
	}

	// Top-down: F deltas, recorded and applied to up.
	for i := len(p.order) - 1; i >= 0; i-- {
		u := p.order[i]
		var rows workSet
		if d := dN[u]; d != nil {
			rows.addRel(d.plus)
			rows.addRel(d.minus)
		}
		if parent := p.d.Parent[u]; parent >= 0 && len(p.shared[u]) == 0 {
			if (o.fLen[parent] > 0) != (m.fLen[parent] > 0) {
				newNodes[u].sup.Range(func(row []Value, _ int64) bool {
					rows.add(row)
					return true
				})
			}
		} else if parent >= 0 {
			k, pair := p.joinSlot[u], p.pairOf[parent][p.joinSlot[u]]
			upLog[pair].each(func(key []Value) {
				if o.up[parent][k].Has(key) != up[pair].cur.Has(key) {
					bucket, _ := newNodes[u].byParent.Get(key)
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
				pair := p.pairOf[u][k]
				patchIndex(&up[pair], cj.uPos, d, &upLog[pair], mc)
			}
		}
	}

	m.down, m.all, m.up = make([]*rowIndex, n), make([]*storage.PMap[int64], n), make([][]*rowIndex, n)
	for u, ns := range newNodes {
		if len(p.shared[u]) > 0 {
			m.down[u] = ns.byParent
		} else {
			m.all[u] = ns.sup
		}
	}
	ups := make([]*rowIndex, p.pairs)
	for u := 0; u < n; u++ {
		m.up[u] = ups[:len(o.up[u]):len(o.up[u])]
		ups = ups[len(o.up[u]):]
		for k, ix := range o.up[u] {
			if ix != nil {
				m.up[u][k] = up[p.pairOf[u][k]].done(mc)
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

// maintainedCounts returns the per-node key sums of cs, bulk-building a flat
// state's messages (their non-zero sums) into persistent maps.
func (cs *countState) maintainedCounts(p *Plan) []*storage.PMap[int64] {
	if cs.keySum != nil {
		return cs.keySum
	}
	keySum := make([]*storage.PMap[int64], p.d.Nodes())
	for u, msg := range cs.msgs {
		if msg == nil {
			continue
		}
		keys, sums := make([]Value, 0, len(msg.Keys())), make([]int64, 0, msg.Len())
		for slot := int32(0); int(slot) < msg.Len(); slot++ {
			if v := msg.Val(slot); v != 0 {
				keys, sums = append(keys, msg.Key(slot)...), append(sums, v)
			}
		}
		keySum[u] = storage.BuildPMap(len(p.sharedPos[u]), keys, len(sums), func(at []int32) int64 { return sums[at[0]] })
	}
	return keySum
}

// update derives the successor of a cached counting DP under the node deltas
// dN. The DP value of a node row is the product, over the node's children, of
// the child's key sum at the row's key — a function of the key sums alone, so
// no per-row vector is stored: bottom-up, each node re-evaluates its own
// changed rows and the rows carrying a key whose sum changed in a child
// (gather, over the join inputs' states after the change), against the old
// sums and the new, and pushes the difference into its own key sum (the root:
// into the total). Work is proportional to the rows re-evaluated.
func (cs *countState) update(p *Plan, oldNodes, newNodes []*nodeState, dN []*relDelta, inputs []*atomState, mc *maintCtx) *countState {
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
		rows := gather(p, u, newNodes[u], dN[u], inputs, mc, func(k int, yield func([]Value, bool)) {
			c := p.childJoins[u][k].child
			sumLog[c].each(func(key []Value) {
				was, _ := old[c].Get(key)
				if is, _ := sums[c].cur.Get(key); is != was {
					yield(key, (was == 0) != (is == 0))
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
