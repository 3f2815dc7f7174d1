package engine

import (
	"slices"
	"sync/atomic"

	"d2cq/internal/storage"
)

// This file maintains the cached enumeration state and the counting DP under
// node deltas, in the manner of counting-based dynamic Yannakakis: instead of
// re-running passes over whole relations, every tree edge keeps the rows of
// either side grouped by the shared key. A node's maintained relation is
// B(u), its bottom-up reduced rows (rows of u with a partner in B of every
// child: Rebind joins the children's key sets in). That is all the
// enumeration needs: the join of the B(u) is the result, and a walk from the
// root down never dead-ends, since every row of B(u) has a partner in B of
// each child. No top-down pass runs, so a node delta only patches the
// groupings of its own rows; the counting DP re-evaluates exactly the rows
// whose inputs changed.
//
//	byParent  (of u's nodeState) groups B(u) by the columns shared with u's
//	          parent. It is the probe of the top-down enumeration: reached
//	          from a row of B(parent), the bucket is never empty.
//	up[u][k]  groups B(u) by the columns shared with child k: the upward
//	          probe of enumerateVia, which may find no row.
//	keySum[u] sums the counting-DP values of u's rows by the columns shared
//	          with the parent; a parent row's value is the product of its
//	          children's sums at its keys.
//
// A key's sum is positive exactly while the key is in the node's key set.
// Rows of the old snapshot are decided against the old maps, which stay
// untouched.

// enumMaint is the maintained form of an enumState.
type enumMaint struct {
	nodes []*nodeState  // B(u), as Rebind maintains it
	up    [][]*rowIndex // nil entry for a child sharing no column

	// delta[u] is the change of B(u) against the state this one was derived
	// from (nil: unchanged) — what DiffFrom against that state reads instead
	// of diffing relations.
	delta []*relDelta

	flatB []atomic.Pointer[Relation] // B(u) as a relation, listed on demand
}

// maintainedUp returns the up groupings of the maintained form of es,
// building them from a flat state (the from-scratch build: flat relations)
// in O(its size). The result is not cached on es: the caller
// derives a successor from it and the flat state stays what its readers use.
func (es *enumState) maintainedUp() [][]*rowIndex {
	if es.m != nil {
		return es.m.up
	}
	p := es.plan
	up := make([][]*rowIndex, p.d.Nodes())
	for u := range up {
		up[u] = make([]*rowIndex, len(p.childJoins[u]))
		for k, cj := range p.childJoins[u] {
			if len(cj.uPos) > 0 {
				up[u][k] = indexRows(es.nodes[u].rel, cj.uPos)
			}
		}
	}
	return up
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

// update derives the successor of a cached enumeration state under the node
// deltas dN (nil entries: node unchanged), given the node states after them.
// The node relations are B, so dN is the change of B: it patches the up
// groupings of the changed nodes and is recorded on the successor as its
// delta, under id, with es named as the parent. The work is proportional to
// the changed rows.
func (es *enumState) update(newNodes []*nodeState, dN []*relDelta, id uint64, mc *maintCtx) *enumState {
	p := es.plan
	n := p.d.Nodes()
	o := es.maintainedUp()
	m := &enumMaint{
		nodes: newNodes, up: make([][]*rowIndex, n), delta: make([]*relDelta, n), flatB: make([]atomic.Pointer[Relation], n),
	}
	ups := make([]*rowIndex, p.pairs)
	for u := range newNodes {
		m.up[u] = ups[:len(o[u]):len(o[u])]
		ups = ups[len(o[u]):]
		copy(m.up[u], o[u])
		d := dN[u]
		if d.empty() {
			continue
		}
		m.delta[u] = d
		for k, ix := range o[u] {
			if ix != nil {
				e := edit(ix)
				patchIndex(&e, p.childJoins[u][k].uPos, d, nil, mc)
				m.up[u][k] = e.done(mc)
			}
		}
	}
	return &enumState{plan: p, pre: es.pre, maxShared: es.maxShared, id: id, parent: es.id, m: m}
}

// flatB returns B(u) as a relation. The flat form holds it; the maintained
// form lists it on first request, O(B(u)), and caches it. Only paths that are
// O(relation) anyway ask: the diff against a snapshot other than the
// predecessor, and nodes joined to their parent by a cross product.
func (es *enumState) flatB(u int) *Relation {
	if es.m == nil {
		return es.nodes[u].rel
	}
	m, p := es.m, es.plan
	if rel := m.flatB[u].Load(); rel != nil {
		return rel
	}
	rel := flatten(m.nodes[u].sup, p.bagVars[u])
	m.flatB[u].Store(rel)
	return rel
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
