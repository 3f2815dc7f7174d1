package engine

import "d2cq/internal/storage"

// This file maintains the groupings of each node's B(u) and the counting DP
// under node deltas, in the manner of counting-based dynamic Yannakakis:
// instead of re-running passes over whole relations, every node keeps its
// rows grouped by the key of each tree edge it lies on. A node's maintained
// relation is B(u), its bottom-up reduced rows (rows of u with a partner in B
// of every child: Rebind joins the children's key sets in). That is all the
// enumeration needs: the join of the B(u) is the result, and a walk from the
// root down never dead-ends, since every row of B(u) has a partner in B of
// each child. No top-down pass runs, so a node delta only patches the
// groupings of its own rows; the counting DP re-evaluates exactly the rows
// whose inputs changed. There is one map per node key (nodeState):
//
//	byParent  groups B(u) by the columns shared with u's parent, each key
//	          with the sum of its rows' DP values. Its keys are the node's
//	          key set, an input of the parent's delta plans; its sums are
//	          the node's counting message, a parent row's value being the
//	          product of its children's sums at its keys; and it is the probe
//	          of the top-down enumeration: reached from a row of B(parent),
//	          the bucket is never empty.
//	up[k]     groups B(u) by the columns shared with child k: the rows a
//	          change of that child's sum at a key re-evaluates, and the
//	          upward probe of enumerateVia, which may find no row.
//
// A key's sum is positive exactly while the key has a group. Rows of the old
// snapshot are decided against the old maps, which stay untouched.

// enumMaint is the maintained form of an enumState.
type enumMaint struct {
	nodes []*nodeState // B(u) and its groupings, as Rebind maintains them

	// delta[u] is the change of B(u) against the state this one was derived
	// from (nil: unchanged) — what DiffFrom against that state reads.
	delta []*relDelta

	// base is, on the first Rebind of a fresh Bind only, that Bind's state
	// over its nodes as the Rebind converted them (buildMaint): the old side
	// DiffFrom walks, as Bind's flat form is walked down only. No later
	// state keeps it, so a chain of snapshots holds no nodes but its own.
	base *enumState
}

// update derives the successor of a cached enumeration state from the node
// states after a Rebind and the node deltas dN (nil or empty entries: node
// unchanged), recorded on the successor under id, with es named as the
// parent. base is es's nodes in maintained form when es is flat (nil
// otherwise). The groupings it probes are the nodes' own, which Rebind
// carried across the deltas already.
func (es *enumState) update(newNodes, base []*nodeState, dN []*relDelta, id uint64) *enumState {
	m := &enumMaint{nodes: newNodes, delta: make([]*relDelta, len(newNodes))}
	if base != nil {
		m.base = &enumState{plan: es.plan, m: &enumMaint{nodes: base}}
	}
	for u, d := range dN {
		if !d.empty() {
			m.delta[u] = d
		}
	}
	return &enumState{plan: es.plan, id: id, parent: es.id, m: m}
}

// regroup derives node u's successor from its old state, given the new B(u)
// (sup) and the change d between the two (nil: none), once every child has
// its successor in newNodes. It carries the up groupings across d and
// re-evaluates the counting DP at every row whose value can have changed:
// d's rows and, for each child key whose sum changed without the key
// entering or leaving the child's key set (then its rows are in d), the rows
// of the new B(u) carrying that key — the key's up bucket, so no join runs; a
// child sharing no column reaches every row. A row's value is the product of
// its children's sums at its keys, and the difference between its new and
// its old value goes into its key's group in byParent, together with the row
// itself when it entered or left (without byParent: into sum). touched[u]
// collects the keys whose group the call rewrote, which the parent reads in
// turn. The old state is returned when nothing changed.
func regroup(p *Plan, u int, old *nodeState, sup *storage.PMap[int64], d *relDelta, oldNodes, newNodes []*nodeState, touched []workSet, mc *maintCtx) *nodeState {
	a := len(p.bagVars[u])
	ns := &nodeState{sup: sup, byParent: old.byParent, up: old.up, sum: old.sum}
	var rows workSet
	if !d.empty() {
		ns.up = make([]*rowIndex, len(old.up))
		for k, ix := range old.up {
			if ix != nil {
				e := edit(ix)
				patchIndex(&e, p.childJoins[u][k].uPos, d, mc)
				ns.up[k] = e.done(mc)
			}
		}
		rows.addRel(d.plus)
		rows.addRel(d.minus)
	}
	for k, cj := range p.childJoins[u] {
		was, is := oldNodes[cj.child], newNodes[cj.child]
		switch {
		case was == is:
		case len(cj.uPos) == 0:
			if was.sum != is.sum && was.sum != 0 && is.sum != 0 {
				sup.Range(func(row []Value, _ int64) bool {
					rows.add(row)
					return true
				})
			}
		default:
			touched[cj.child].each(func(key []Value) {
				g0, _ := was.byParent.Get(key)
				g1, _ := is.byParent.Get(key)
				mc.rows += 2
				if g0.sum != g1.sum && g0.sum != 0 && g1.sum != 0 {
					bucket, _ := ns.up[k].Get(key)
					rows.addBucket(bucket, a)
				}
			})
		}
	}
	if sup == old.sup && rows.len() == 0 {
		return old
	}
	buf := make([]Value, a)
	value := func(nodes []*nodeState, row []Value) int64 {
		v := int64(1)
		for _, cj := range p.childJoins[u] {
			c := nodes[cj.child]
			s := c.sum
			if len(cj.uPos) > 0 {
				g, _ := c.byParent.Get(project(buf, row, cj.uPos))
				s = g.sum
			}
			mc.rows++
			if s == 0 {
				return 0
			}
			v *= s
		}
		return v
	}
	var groups editor[keyGroup]
	if old.byParent != nil {
		groups = edit(old.byParent)
	}
	rows.each(func(row []Value) {
		was, is := old.sup.Has(row), sup.Has(row)
		mc.rows += 2
		var diff int64
		if is {
			diff += value(newNodes, row)
		}
		if was {
			diff -= value(oldNodes, row)
		}
		if diff == 0 && was == is {
			return
		}
		if old.byParent == nil {
			ns.sum += diff
			return
		}
		key := project(buf, row, p.sharedPos[u])
		g, _ := groups.cur.Get(key)
		switch {
		case is && !was:
			g.rows = withRow(g.rows, row)
		case was && !is:
			g.rows = withoutRow(g.rows, row)
		}
		// Rows are re-evaluated one at a time, so a group runs out of rows
		// exactly when the last of its old rows has left and none of its new
		// ones has arrived: its sum is zero then.
		if g.sum += diff; len(g.rows) == 0 {
			groups.w().Delete(key)
		} else {
			groups.w().Set(key, g)
		}
		touched[u].add(key)
	})
	if old.byParent != nil {
		ns.byParent = groups.done(mc)
	}
	return ns
}

// keyDelta is the change of node u's key set between its parent groupings
// old and cur: the touched keys whose group appeared or vanished. It is nil
// when none did.
func keyDelta(p *Plan, u int, old, cur *storage.PMap[keyGroup], touched *workSet, mc *maintCtx) *relDelta {
	var kd *relDelta
	touched.each(func(key []Value) {
		was, is := old.Has(key), cur.Has(key)
		if was == is {
			return
		}
		if kd == nil {
			kd = newRelDelta(p.shared[u])
		}
		if is {
			kd.plus.Add(key...)
		} else {
			kd.minus.Add(key...)
		}
	})
	mc.rows += uint64(2 * touched.len())
	return kd
}
