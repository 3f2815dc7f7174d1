package engine

import (
	"context"
	"fmt"
	"slices"

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
//  2. nodes, children first, in one walk: a node's relation is its
//     bottom-up reduced bag B(u), the join of its atoms and its children's
//     key sets projected to the bag, an edge with private columns joined
//     through its weighted projection, whose rows change when a key's
//     multiplicity does (weightDelta). A node with a dirty input delta-joins
//     that delta through its other inputs into derivation counts, each
//     derivation weighing the product of its weights; the tuples whose count
//     crosses zero are the node's delta (maintainNode).
//     The delta patches the node's groupings of B(u), and the counting DP is
//     re-evaluated at the node's changed rows and at the rows carrying a key
//     whose sum changed in a child — read off that child's grouping, with no
//     join (regroup, maintreduce.go). The keys whose group appeared or
//     vanished are the delta of the node's key set, an input of its parent
//     (keyDelta), and the keys whose sum changed are what the parent
//     re-evaluates;
//  3. enumeration and counting: the enumeration state holds the maintained
//     nodes and records their deltas, which DiffFrom against the predecessor
//     walks from; the count is the root's sum.
//
// An empty delta at any layer stops the propagation there. Every piece of
// state lives in persistent maps, so the successor shares everything the
// delta did not touch and costs time proportional to the change. There is
// this one path for every delta, however large: a delta the size of a
// relation delta-joins every row of it, which costs about what rebuilding
// the nodes it reaches would.

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
	nb := *b
	nb.cdb = cdb
	return &nb
}

// Rebind rebinds the query to a new database snapshot in time proportional to
// the change between the two snapshots (see the file comment), sharing every
// piece of bound state the change does not reach. The first Rebind of a
// freshly bound query additionally converts its state to maintained form,
// once: one bulk build per map, O(database) time in a few allocations per
// map, and the result holds the maintained form only, none of Bind's flat
// relations. Every plan with a decomposition is maintained; a naive plan or
// a ground query, which keep no decomposition state, is bound afresh when a
// delta reaches a relation it reads. So is the query when the snapshot does
// not share the receiver's dictionary (i.e. does not descend from the same
// CompileDB via Apply).
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
	if plan.Naive() || plan.d.Nodes() == 0 {
		return b.prep.Bind(ctx, cdb) // no decomposition state to maintain
	}
	mc := &maintCtx{}
	defer func() { eng.maintRows.Add(mc.rows) }()

	ms, base := b.maint, []*nodeState(nil)
	if ms == nil {
		var err error
		if ms, err = b.buildMaint(ctx); err != nil {
			return nil, err
		}
		base = ms.nodes
	}

	// 1. Atoms: the exact delta of every dirty atom relation, and its
	// successor state; then the same for every weighted projection of one.
	nu := &nodeUpdate{plan: ms.plan, oldAtoms: ms.atoms, newAtoms: append([]*atomState(nil), ms.atoms...), deltas: make([]*relDelta, len(ms.atoms))}
	visible := false
	for _, i := range dirty {
		rel := q.Atoms[i].Rel
		d, set, err := atomDelta(plan, i, ms.atoms[i].set, b.cdb.sdb.Table(rel), cdb.sdb.Table(rel), cdb.sdb.Dict, eng, mc)
		if err != nil {
			return nil, err
		}
		if d.empty() {
			continue // invisible to this atom (e.g. filtered out by its constants)
		}
		nu.deltas[i] = d
		nu.newAtoms[i] = patchAtom(ms.plan, i, ms.atoms[i], set, d, mc)
		visible = true
	}
	for j, w := range plan.weighted {
		if d := nu.deltas[w.atom]; d != nil {
			in := plan.weightedInput(j)
			if wd := weightDelta(plan, j, ms.atoms[in], d, mc); !wd.empty() {
				nu.deltas[in] = wd
				nu.newAtoms[in] = patchAtom(ms.plan, in, ms.atoms[in], nil, wd, mc)
			}
		}
	}
	if !visible && b.maint != nil {
		// Every dirty atom absorbed: the delta is invisible to the query
		// after all. (A just-built maintained form goes on through the
		// nodes, which nothing reaches, so the result keeps it and not
		// Bind's flat relations.)
		return b.share(cdb), nil
	}

	// 2. Nodes, children first: delta-join every node with a changed input;
	// carry its groupings across the change and re-evaluate its counting DP
	// where a row or a child's sum changed (regroup); then hand the node's
	// key set, with its delta, to its parent — a key set sharing no column
	// with the parent changes when the node empties or fills.
	n := plan.d.Nodes()
	nm := &maintState{plan: ms.plan, atoms: nu.newAtoms, nodes: append([]*nodeState(nil), ms.nodes...)}
	nb := &BoundQuery{prep: b.prep, cdb: cdb, maint: nm}
	dN := make([]*relDelta, n)
	touched := make([]workSet, n)
	for _, u := range plan.order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		old, sup := ms.nodes[u], ms.nodes[u].sup
		if slices.ContainsFunc(plan.inputs[u], func(i int) bool { return nu.deltas[i] != nil }) {
			eng.nodeDeltaJoins.Add(1)
			sup, dN[u] = maintainNode(plan, u, old, nu, mc)
		}
		ns := regroup(plan, u, old, sup, dN[u], ms.nodes, nm.nodes, touched, mc)
		nm.nodes[u] = ns
		k := plan.keyInput(u)
		if ns.byParent != old.byParent {
			kd := keyDelta(plan, u, old.byParent, ns.byParent, &touched[u], mc)
			nu.deltas[k] = kd
			nu.newAtoms[k] = &atomState{keys: ns.byParent, idx: patchIndexes(ms.plan.idxCols[k], ms.atoms[k].idx, kd, mc)}
		} else if ka := ms.atoms[k]; ka != nil && ka.keys == nil && ka.set.Len() != min(ns.sup.Len(), 1) {
			kd := newRelDelta(nil)
			if ns.sup.Len() > 0 {
				kd.plus.AddEmpty()
			} else {
				kd.minus.AddEmpty()
			}
			nu.deltas[k] = kd
			nu.newAtoms[k] = patchAtom(ms.plan, k, ka, nil, kd, mc)
		}
	}

	// 3. Carry the caches across: the enumeration reads the nodes' own
	// groupings and records the node deltas against b's enumeration state
	// (and, converted just now, b's nodes); the count is the root's sum.
	nb.enumSt = b.enumSt.update(nm.nodes, base, dN, eng.stateSeq.Add(1))
	nb.countSt = &countState{total: nm.nodes[plan.d.Root()].sum}
	return nb, nil
}

// atomDelta computes the exact delta of dirty atom i against its old tuple
// set, given the relation's table before and after (either may be nil: the
// empty relation), off the two tables' row maps (storage.DiffTables): Apply
// leaves every table a delta reaches persistent, so the new table descends
// from the old one — or from the row map a flat old one converted to — and
// the diff is O(change), whatever the number of Applies in between. The
// projection of matching table rows onto the atom's distinct variables is
// injective — the tuple plus the atom's constants and repeated variables
// reconstruct the row — so the matching rows that left the table are exactly
// the tuples leaving the relation, and likewise entering. An atom whose
// relation IS the table (Plan.directAtom) skips even the projection, and its
// successor set — the new table's own map, shared, not patched — is returned
// too. Each call counts as AtomDeltaFast.
func atomDelta(p *Plan, i int, old *rowSet, oldT, newT *storage.Table, dict *Dict, eng *Engine, mc *maintCtx) (d *relDelta, set *rowSet, err error) {
	a, vars := p.query.Atoms[i], p.atomVars[i]
	if newT != nil && newT.Arity != len(a.Args) {
		return nil, nil, fmt.Errorf("engine: arity mismatch in %s", a.Rel)
	}
	eng.atomDeltaFast.Add(1)
	d = newRelDelta(vars)
	if p.directAtom[i] {
		set = tableRows(newT, len(a.Args))
		mc.rows += uint64(set.Diff(old, d.minus.addRow, d.plus.addRow))
		return d, set, nil
	}
	// A constant the dictionary has never seen matches nothing — and the
	// dictionary only grows, so the old relation was empty too.
	if m := newAtomMatcher(a, vars, dict); m.ok {
		side := func(rel *Relation) func(row []Value) {
			return func(row []Value) {
				if key, ok := m.match(row); ok {
					rel.addRow(key)
				}
			}
		}
		mc.rows += uint64(storage.DiffTables(oldT, newT, side(d.minus), side(d.plus)))
	}
	return d, nil, nil
}

// tableRows returns a table's rows as a persistent set (nil: the empty
// relation of the given arity).
func tableRows(t *storage.Table, arity int) *rowSet {
	if t == nil {
		return storage.NewPMap[struct{}](arity)
	}
	return t.RowMap()
}
