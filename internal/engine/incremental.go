package engine

import (
	"context"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// This file is the incremental-maintenance half of the bound API. A
// BoundQuery is never mutated; Update and Rebind return a new BoundQuery
// over the new database snapshot. One first-class relation delta — the rows
// entering and leaving — is threaded through every layer, each layer
// consuming the delta of the one below and emitting its own:
//
//  1. atoms: an atom is dirty iff the compiled table behind its relation is
//     a different pointer in the new snapshot; its delta is read straight off
//     the snapshot's row lineage (rebindAtomDelta);
//  2. nodes: a decomposition node with a dirty input delta-joins that delta
//     through its other inputs into ±1 derivation counts; the tuples whose
//     count crosses zero are the node's delta (maintainNode);
//  3. reduction and counting: the node deltas are pushed through the tree
//     edges' key groupings into the deltas of the reduced relations — which
//     are recorded, so DiffFrom against the predecessor reads them instead of
//     recomputing them — and into the key sums of the counting DP
//     (maintreduce.go).
//
// An empty delta at any layer stops the propagation there. Every piece of
// state lives in persistent maps, so the successor shares everything the
// delta did not touch and costs time proportional to the change; the cost
// model (cost.go) sends deltas too large for that back to a rebuild.

// Update applies a delta to the bound query's database snapshot and carries
// the bound evaluation state forward incrementally: the new snapshot is
// built by CompiledDB.Apply (copy-on-write) and the returned BoundQuery is
// b.Rebind over it. The receiver stays valid and keeps answering over the
// old snapshot; several bound queries over one database should instead share
// one Apply and Rebind each.
func (b *BoundQuery) Update(ctx context.Context, delta *storage.Delta) (*BoundQuery, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ncdb, err := b.cdb.Apply(ctx, delta)
	if err != nil {
		return nil, err
	}
	return b.Rebind(ctx, ncdb)
}

// share returns b moved to cdb with all bound state shared, caches included:
// nothing the query can see changed.
func (b *BoundQuery) share(cdb *CompiledDB) *BoundQuery {
	nb := &BoundQuery{prep: b.prep, cdb: cdb, inst: b.inst, nodeRels: b.nodeRels, maint: b.maint}
	nb.enumSt.Store(b.enumSt.Load())
	nb.countSt.Store(b.countSt.Load())
	return nb
}

// Rebind rebinds the query to a new database snapshot in time proportional to
// the change between the two snapshots (see the file comment), sharing every
// piece of bound state the change does not reach. The first Rebind of a
// freshly bound query additionally converts its state to maintained form,
// once, in O(database). The snapshot must share the receiver's dictionary
// (i.e. descend from the same CompileDB via Apply); otherwise Rebind falls
// back to a full Bind, as it does whenever a delta reaches a relation of a
// plan that is not maintained (see Plan.planMaintenance).
func (b *BoundQuery) Rebind(ctx context.Context, cdb *CompiledDB) (*BoundQuery, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eng := b.prep.eng
	eng.rebinds.Add(1)
	if b.cdb.sdb.Dict != cdb.sdb.Dict {
		// Unrelated snapshot: values are not comparable across dictionaries.
		return b.prep.Bind(ctx, cdb)
	}
	plan := b.prep.plan
	q := plan.query
	var dirty []int
	for i, a := range q.Atoms {
		if b.cdb.sdb.Table(a.Rel) != cdb.sdb.Table(a.Rel) {
			dirty = append(dirty, i)
		}
	}
	if len(dirty) == 0 {
		return b.share(cdb), nil
	}
	if !plan.maintainable {
		// Naive plans, ground queries, and decompositions with a nullary atom
		// or bag: there is no incremental state worth keeping for them.
		return b.prep.Bind(ctx, cdb)
	}
	mc := &maintCtx{}
	defer func() { eng.maintRows.Add(mc.rows) }()

	ms := b.maint
	if ms == nil {
		var err error
		if ms, err = b.buildMaint(ctx); err != nil {
			return nil, err
		}
	}

	// 1. Atoms: the exact delta of every dirty atom relation, and its
	// successor state.
	inst := &Instance{Query: q, Dict: b.inst.Dict, AtomRels: append([]*Relation(nil), b.inst.AtomRels...), atomKeys: b.inst.keys()}
	nu := &nodeUpdate{oldAtoms: ms.atoms, newAtoms: append([]*atomState(nil), ms.atoms...), deltas: make([]*relDelta, len(q.Atoms))}
	visible := false
	for _, i := range dirty {
		d, flat, err := atomDelta(q.Atoms[i], ms.atoms[i].set, b.cdb.sdb.Table(q.Atoms[i].Rel), cdb.sdb, eng, mc)
		if err != nil {
			return nil, err
		}
		if d.empty() {
			continue // invisible to this atom (e.g. filtered out by its constants)
		}
		nu.deltas[i] = d
		nu.newAtoms[i] = patchAtom(plan, i, ms.atoms[i], d, mc)
		inst.AtomRels[i] = flat
		visible = true
	}
	if !visible {
		// Every dirty atom absorbed: the delta is invisible to the query
		// after all. Keep the (possibly just built) maintained form.
		nb := b.share(cdb)
		nb.maint = ms
		return nb, nil
	}

	// 2. Nodes: delta-join every node with a changed input, or rebuild it
	// where the cost model prices the delta above that.
	nm := &maintState{atoms: nu.newAtoms, nodes: append([]*nodeState(nil), ms.nodes...)}
	nb := &BoundQuery{prep: b.prep, cdb: cdb, inst: inst, maint: nm, nodeRels: append([]*Relation(nil), b.nodeRels...)}
	dN := make([]*relDelta, plan.d.Nodes())
	for u := 0; u < plan.d.Nodes(); u++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		totalDelta, totalInput, maxInput := 0, 0, 0
		for _, i := range plan.inputs[u] {
			l := nu.newAtoms[i].set.Len()
			totalInput += l
			if l > maxInput {
				maxInput = l
			}
			if d := nu.deltas[i]; d != nil {
				totalDelta += d.rows()
			}
		}
		if totalDelta == 0 {
			continue
		}
		if chooseNodeDelta(totalDelta, totalInput, ms.nodes[u].sup.Len(), maxInput) {
			eng.nodeDeltaJoins.Add(1)
			nm.nodes[u], dN[u] = maintainNode(plan, u, ms.nodes[u], nu, mc)
			if !dN[u].empty() {
				nb.nodeRels[u] = nil
			}
			continue
		}
		eng.nodeRebuilds.Add(1)
		for _, i := range plan.inputs[u] {
			if inst.AtomRels[i] == nil {
				inst.AtomRels[i] = flatten(nu.newAtoms[i].set, plan.atomVars[i])
				mc.rows += uint64(inst.AtomRels[i].Len())
			}
		}
		nm.nodes[u], nb.nodeRels[u], dN[u] = rebuildNode(plan, u, ms.nodes[u], inst, mc)
	}

	// 3. Carry whichever caches exist across the node deltas.
	if es := b.enumSt.Load(); es != nil {
		nb.enumSt.Store(es.update(ms.nodes, nm.nodes, dN, eng.stateSeq.Add(1), mc))
	}
	if cs := b.countSt.Load(); cs != nil {
		nb.countSt.Store(cs.update(plan, ms.nodes, nm.nodes, dN, mc))
	}
	return nb, nil
}

// atomDelta computes the exact delta of one dirty atom relation against its
// old tuple set: from the snapshot's row lineage where there is a usable one
// (counted as AtomDeltaFast), by rescanning the table and diffing otherwise
// (AtomDeltaScan) — in which case the freshly scanned flat relation is
// returned too, so a node rebuild need not list it again.
func atomDelta(a cq.Atom, old *rowSet, oldTable *storage.Table, sdb *storage.DB, eng *Engine, mc *maintCtx) (*relDelta, *Relation, error) {
	if plus, minus, ok := rebindAtomDelta(a, oldTable, sdb, eng); ok {
		eng.atomDeltaFast.Add(1)
		mc.rows += uint64(2 * (plus.Len() + minus.Len()))
		return normaliseDelta(old, plus, minus), nil, nil
	}
	eng.atomDeltaScan.Add(1)
	rel, err := bindAtomRelation(a, sdb.Table(a.Rel), sdb.Dict)
	if err != nil {
		return nil, nil, err
	}
	mc.rows += uint64(2*rel.Len() + old.Len())
	return diffRows(old, rel), rel, nil
}

// normaliseDelta turns the rows a lineage lists as added and removed into an
// exact set delta against old: a row removed and re-added in one window
// (deletes apply first) is in both lists and changes nothing, and neither
// list is trusted beyond what old's membership confirms.
func normaliseDelta(old *rowSet, plus, minus *Relation) *relDelta {
	d := newRelDelta(plus.Cols)
	added := storage.NewTupleMap(len(plus.Cols), plus.Len())
	for i := 0; i < plus.Len(); i++ {
		if _, isNew := added.Insert(plus.Row(i)); isNew && !old.Has(plus.Row(i)) {
			d.plus.Add(plus.Row(i)...)
		}
	}
	var gone *storage.TupleMap
	for i := 0; i < minus.Len(); i++ {
		row := minus.Row(i)
		if added.Find(row) >= 0 || !old.Has(row) {
			continue
		}
		if gone == nil {
			gone = storage.NewTupleMap(len(minus.Cols), minus.Len())
		}
		if _, isNew := gone.Insert(row); isNew {
			d.minus.Add(row...)
		}
	}
	return d
}

// rebindAtomDelta reads one dirty atom's delta off the snapshot's row-level
// lineage instead of re-scanning the table. The projection of matching table
// rows onto the atom's distinct variables is injective (the tuple plus the
// atom's constants and repeated variables reconstruct the row), so removed
// table rows that match are exactly the tuples leaving the relation, and
// added rows that match are exactly the tuples entering it — no derivation
// counts needed. The lineage may span several Applies: the snapshot composes
// its bounded chain back to oldTable, so a query that rebinds k Applies late
// still pays O(total change). A row removed and re-added inside the window is
// listed on both sides (see normaliseDelta). ok=false asks for the full
// bindAtomRelation scan: no usable lineage (the snapshot is past the chain
// bounds, or from a fresh Compile), an arity mismatch (the scan path reports
// the error), a nullary atom, or a delta the cost model prices above the
// scan.
func rebindAtomDelta(a cq.Atom, oldTable *storage.Table, sdb *storage.DB, eng *Engine) (plus, minus *Relation, ok bool) {
	vars := a.VarSet()
	if len(vars) == 0 {
		return nil, nil, false
	}
	lin, steps := sdb.LineageFrom(a.Rel, oldTable)
	if lin == nil || lin.Arity != len(a.Args) {
		return nil, nil, false
	}
	if !chooseAtomDelta(lin.AddedRows()+lin.RemovedRows(), atomScanRows(a, oldTable)) {
		return nil, nil, false
	}
	if steps > 1 {
		eng.lineageComposed.Add(1)
	}
	plus, minus = NewRelation(vars...), NewRelation(vars...)
	m := newAtomMatcher(a, vars, sdb.Dict)
	if !m.ok {
		// A constant the dictionary has never seen matches nothing — and the
		// dictionary only grows, so the old relation was already empty.
		return plus, minus, true
	}
	arity := len(a.Args)
	for i := 0; i+arity <= len(lin.Removed); i += arity {
		if key, ok := m.match(lin.Removed[i : i+arity]); ok {
			minus.Add(key...)
		}
	}
	for i := 0; i+arity <= len(lin.Added); i += arity {
		if key, ok := m.match(lin.Added[i : i+arity]); ok {
			plus.Add(key...)
		}
	}
	return plus, minus, true
}
