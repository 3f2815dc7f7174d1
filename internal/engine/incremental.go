package engine

import (
	"context"
	"fmt"

	"d2cq/internal/storage"
)

// This file is the incremental-maintenance half of the bound API. A
// BoundQuery is never mutated; Update and Rebind return a new BoundQuery
// over the new database snapshot. One first-class relation delta — the rows
// entering and leaving — is threaded through every layer, each layer
// consuming the delta of the one below and emitting its own:
//
//  1. atoms: an atom is dirty iff the compiled table behind its relation is
//     a different pointer in the new snapshot; its delta is read off the two
//     tables' row maps, which share everything the change did not touch
//     (atomDelta);
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
	nb := &BoundQuery{prep: b.prep, cdb: cdb, inst: b.inst, nodeRels: b.nodeRels, reduced: b.reduced, maint: b.maint}
	nb.enumSt.Store(b.enumSt.Load())
	nb.countSt.Store(b.countSt.Load())
	return nb
}

// Rebind rebinds the query to a new database snapshot in time proportional to
// the change between the two snapshots (see the file comment), sharing every
// piece of bound state the change does not reach. The first Rebind of a
// freshly bound query additionally converts its state to maintained form,
// once, in O(database); after Bind rather than BindMaintained that includes
// rebuilding the cover-based node relations. The snapshot must share the
// receiver's dictionary (i.e. descend from the same CompileDB via Apply);
// otherwise Rebind falls back to a full BindMaintained, as it does whenever a
// delta reaches a relation of a plan that is not maintained (see
// Plan.planMaintenance).
func (b *BoundQuery) Rebind(ctx context.Context, cdb *CompiledDB) (*BoundQuery, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eng := b.prep.eng
	eng.rebinds.Add(1)
	if b.cdb.sdb.Dict != cdb.sdb.Dict {
		// Unrelated snapshot: values are not comparable across dictionaries.
		return b.prep.BindMaintained(ctx, cdb)
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
		return b.prep.BindMaintained(ctx, cdb)
	}
	mc := &maintCtx{}
	defer func() { eng.maintRows.Add(mc.rows) }()

	ms, nodeRels := b.maint, b.nodeRels
	if ms == nil {
		var err error
		if ms, nodeRels, err = b.buildMaint(ctx); err != nil {
			return nil, err
		}
	}

	// 1. Atoms: the exact delta of every dirty atom relation, and its
	// successor state.
	inst := &Instance{Query: q, Dict: b.inst.Dict, AtomRels: append([]*Relation(nil), b.inst.AtomRels...), atomKeys: b.inst.keys()}
	nu := &nodeUpdate{oldAtoms: ms.atoms, newAtoms: append([]*atomState(nil), ms.atoms...), deltas: make([]*relDelta, len(q.Atoms))}
	visible := false
	for _, i := range dirty {
		rel := q.Atoms[i].Rel
		d, set, flat, err := atomDelta(plan, i, ms.atoms[i].set, b.cdb.sdb.Table(rel), cdb.sdb.Table(rel), cdb.sdb.Dict, eng, mc)
		if err != nil {
			return nil, err
		}
		if d.empty() {
			continue // invisible to this atom (e.g. filtered out by its constants)
		}
		nu.deltas[i] = d
		nu.newAtoms[i] = patchAtom(plan, i, ms.atoms[i], set, d, mc)
		inst.AtomRels[i] = flat
		visible = true
	}
	if !visible {
		// Every dirty atom absorbed: the delta is invisible to the query
		// after all. Keep the (possibly just built) maintained form.
		nb := b.share(cdb)
		nb.maint, nb.nodeRels, nb.reduced = ms, nodeRels, false
		return nb, nil
	}

	// 2. Nodes: delta-join every node with a changed input, or rebuild it
	// where the cost model prices the delta above that.
	nm := &maintState{atoms: nu.newAtoms, nodes: append([]*nodeState(nil), ms.nodes...)}
	nb := &BoundQuery{prep: b.prep, cdb: cdb, inst: inst, maint: nm, nodeRels: append([]*Relation(nil), nodeRels...)}
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

// atomDelta computes the exact delta of dirty atom i against its old tuple
// set, given the relation's table before and after (either may be nil: the
// empty relation). Normally it is read off the two tables' row maps
// (storage.DiffTables — O(change) when the new table descends from the old by
// small deltas, whatever the number of Applies in between; counted as
// AtomDeltaFast): the projection of matching table rows onto the atom's
// distinct variables is injective — the tuple plus the atom's constants and
// repeated variables reconstruct the row — so the matching rows that left the
// table are exactly the tuples leaving the relation, and likewise entering.
// An atom whose relation IS the table (Plan.directAtom) skips even the
// projection, and its successor set — the new table's own map, shared, not
// patched — is returned too. Only a table rewritten flat (a delta the size of
// the relation: it shares nothing with its predecessor) is rescanned and
// diffed against the old set (AtomDeltaScan); the scanned flat relation is
// then returned as well, so a node rebuild need not list it again.
func atomDelta(p *Plan, i int, old *rowSet, oldT, newT *storage.Table, dict *Dict, eng *Engine, mc *maintCtx) (d *relDelta, set *rowSet, flat *Relation, err error) {
	a, vars := p.query.Atoms[i], p.atomVars[i]
	if newT != nil && newT.Arity != len(a.Args) {
		return nil, nil, nil, fmt.Errorf("engine: arity mismatch in %s", a.Rel)
	}
	if p.directAtom[i] {
		eng.atomDeltaFast.Add(1)
		d, set = newRelDelta(vars), tableRows(newT, len(a.Args))
		mc.rows += uint64(set.Diff(old, func(row []Value) { d.minus.Add(row...) }, func(row []Value) { d.plus.Add(row...) }))
		return d, set, nil, nil
	}
	if newT != nil && newT.Flat() {
		eng.atomDeltaScan.Add(1)
		if flat, err = bindAtomRelation(a, newT, dict); err != nil {
			return nil, nil, nil, err
		}
		mc.rows += uint64(2*flat.Len() + old.Len())
		return diffRows(old, flat), nil, flat, nil
	}
	eng.atomDeltaFast.Add(1)
	d = newRelDelta(vars)
	// A constant the dictionary has never seen matches nothing — and the
	// dictionary only grows, so the old relation was empty too.
	if m := newAtomMatcher(a, vars, dict); m.ok {
		side := func(rel *Relation) func(row []Value) {
			return func(row []Value) {
				if key, ok := m.match(row); ok {
					rel.Add(key...)
				}
			}
		}
		mc.rows += uint64(storage.DiffTables(oldT, newT, side(d.minus), side(d.plus)))
	}
	return d, nil, nil, nil
}

// tableRows returns a table's rows as a persistent set (nil: the empty
// relation of the given arity).
func tableRows(t *storage.Table, arity int) *rowSet {
	if t == nil {
		return storage.NewPMap[struct{}](arity)
	}
	return t.RowMap()
}
