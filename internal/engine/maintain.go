package engine

import (
	"context"
	"slices"

	"d2cq/internal/storage"
)

// This file holds the maintained form of a bound query's atom and node
// relations. A fresh Bind keeps them as flat Relations — the fastest thing
// to build and scan, and all a bind-and-evaluate workload ever pays for. The
// first Rebind that sees a visible change converts them, once and in
// O(database), into persistent tuple maps (storage.PMap); from then on every
// Rebind derives its successor state by patching exactly the touched keys,
// while readers of the old snapshot keep the old roots. Identity is the
// tuple itself — there are no row numbers to keep stable and no tombstones
// to compact.

// rowSet is a persistent set of tuples; rowIndex maps a key (the projection
// of a row onto some of its columns) to the flat bucket of full rows carrying
// it. Buckets are immutable: a patch installs a copy.
type (
	rowSet   = storage.PMap[struct{}]
	rowIndex = storage.PMap[[]Value]
)

// atomState is one atom relation: its tuples over the atom's sorted distinct
// variables, indexed on every column subset a delta plan probes
// (Plan.atomIdxCols).
type atomState struct {
	set *rowSet
	idx []*rowIndex
}

// nodeState is one decomposition node's relation: every bag tuple with its
// derivation count in the join of the node's inputs (always positive — a
// tuple whose last derivation goes away leaves the map), indexed on the
// columns shared with each child (Plan.childJoins order; nil for a child
// sharing none).
type nodeState struct {
	sup     *storage.PMap[int64]
	byChild []*rowIndex
}

// maintState is the maintained form of everything Bind materialises.
// Immutable once published on a BoundQuery.
type maintState struct {
	atoms []*atomState
	nodes []*nodeState
}

// relDelta is the exact change of one relation between two snapshots: the
// rows entering and the rows leaving, disjoint, each a set. nil means "did
// not change".
type relDelta struct {
	plus, minus *Relation
}

func newRelDelta(cols []string) *relDelta {
	return &relDelta{plus: NewRelation(cols...), minus: NewRelation(cols...)}
}

func (d *relDelta) rows() int { return d.plus.Len() + d.minus.Len() }

func (d *relDelta) empty() bool { return d == nil || d.rows() == 0 }

// diffRows is the delta that turns the key set of old into the rows of rel,
// by two whole-relation passes — the price of a rebuild, which has no delta
// to carry.
func diffRows[V any](old *storage.PMap[V], rel *Relation) *relDelta {
	d := newRelDelta(rel.Cols)
	now := storage.NewTupleMap(len(rel.Cols), rel.Len())
	for i := 0; i < rel.Len(); i++ {
		now.Insert(rel.Row(i))
		if !old.Has(rel.Row(i)) {
			d.plus.Add(rel.Row(i)...)
		}
	}
	old.Range(func(row []Value, _ V) bool {
		if now.Find(row) < 0 {
			d.minus.Add(row...)
		}
		return true
	})
	return d
}

// maintCtx carries one maintenance call's rows-touched tally (rows hashed,
// probed or copied), flushed into Engine.Stats.MaintRowsTouched at the end.
type maintCtx struct {
	rows uint64
}

// editor is a lazily opened edit of one persistent map: reads see the
// predecessor until the first write, and a map nobody wrote keeps its
// pointer, so "unchanged" stays a pointer comparison.
type editor[V any] struct {
	old, cur *storage.PMap[V]
}

func edit[V any](m *storage.PMap[V]) editor[V] { return editor[V]{old: m, cur: m} }

// w returns the map for writing, opening the edit on first use.
func (e *editor[V]) w() *storage.PMap[V] {
	if e.cur == e.old {
		e.cur = e.old.Edit()
	}
	return e.cur
}

// done freezes the edit (if any) and returns the successor, charging the
// entries its path copies moved.
func (e *editor[V]) done(mc *maintCtx) *storage.PMap[V] {
	if e.cur != e.old {
		mc.rows += uint64(e.cur.Copied())
		e.cur.Freeze()
	}
	return e.cur
}

// workSet is a deduplicated list of tuples — rows to re-decide, keys an index
// patch touched — empty until the first add.
type workSet struct {
	rows *storage.TupleMap
}

func (w *workSet) add(row []Value) {
	if w.rows == nil {
		w.rows = storage.NewTupleMap(len(row), 8)
	}
	w.rows.Insert(row)
}

func (w *workSet) addRel(rel *Relation) {
	for i := 0; i < rel.Len(); i++ {
		w.add(rel.Row(i))
	}
}

// addBucket adds the width-wide rows of an index bucket.
func (w *workSet) addBucket(bucket []Value, width int) {
	for i := 0; i+width <= len(bucket); i += width {
		w.add(bucket[i : i+width])
	}
}

func (w *workSet) each(f func(row []Value)) {
	if w.rows == nil {
		return
	}
	for s := int32(0); int(s) < w.rows.Len(); s++ {
		f(w.rows.Key(s))
	}
}

// project writes row's columns at pos into buf[:len(pos)] and returns that
// prefix.
func project(buf, row []Value, pos []int) []Value {
	buf = buf[:len(pos)]
	for j, x := range pos {
		buf[j] = row[x]
	}
	return buf
}

// idxAdd adds row to key's bucket.
func idxAdd(ix *rowIndex, key, row []Value) {
	bucket, _ := ix.Get(key)
	ix.Set(key, append(bucket[:len(bucket):len(bucket)], row...))
}

// idxRemove removes row from key's bucket, and the key with its last row.
// Removing a row that is not there is a no-op.
func idxRemove(ix *rowIndex, key, row []Value) {
	bucket, _ := ix.Get(key)
	a := len(row)
	for i := 0; i+a <= len(bucket); i += a {
		if !slices.Equal(bucket[i:i+a], row) {
			continue
		}
		if len(bucket) == a {
			ix.Delete(key)
			return
		}
		out := make([]Value, 0, len(bucket)-a)
		ix.Set(key, append(append(out, bucket[:i]...), bucket[i+a:]...))
		return
	}
}

// patchIndex carries an index on cols across d: leaving rows out, entering
// rows in. touched, when given, collects the keys involved, so the caller can
// tell afterwards which keys appeared or vanished.
func patchIndex(ix *editor[[]Value], cols []int, d *relDelta, touched *workSet, mc *maintCtx) {
	keyBuf := make([]Value, len(cols))
	patch := func(rel *Relation, op func(ix *rowIndex, key, row []Value)) {
		for r := 0; r < rel.Len(); r++ {
			key := project(keyBuf, rel.Row(r), cols)
			op(ix.w(), key, rel.Row(r))
			if touched != nil {
				touched.add(key)
			}
		}
	}
	patch(d.minus, idxRemove)
	patch(d.plus, idxAdd)
	mc.rows += uint64(d.rows())
}

// indexRows builds the index of rel's rows on cols from scratch.
func indexRows(rel *Relation, cols []int) *rowIndex {
	ix := storage.NewPMap[[]Value](len(cols)).Edit()
	buf := make([]Value, len(cols))
	for i := 0; i < rel.Len(); i++ {
		row := rel.Row(i)
		key := project(buf, row, cols)
		bucket, _ := ix.Get(key)
		// Growing in place is safe here: the map is private until frozen.
		ix.Set(key, append(bucket, row...))
	}
	return ix.Freeze()
}

// setOfRows builds the tuple set of rel's rows from scratch.
func setOfRows(rel *Relation) *rowSet {
	s := storage.NewPMap[struct{}](len(rel.Cols)).Edit()
	for i := 0; i < rel.Len(); i++ {
		s.Set(rel.Row(i), struct{}{})
	}
	return s.Freeze()
}

// flatten lists a persistent map's keys as a flat relation over cols.
func flatten[V any](m *storage.PMap[V], cols []string) *Relation {
	out := NewRelation(cols...)
	out.Data = make([]Value, 0, m.Len()*len(cols))
	m.Range(func(key []Value, _ V) bool {
		out.Data = append(out.Data, key...)
		return true
	})
	return out
}

// newAtomState builds the maintained form of atom i's flat relation over the
// table t. An atom whose relation is the table itself (Plan.directAtom)
// shares the table's row map instead of building a set of its own.
func newAtomState(p *Plan, i int, rel *Relation, t *storage.Table) *atomState {
	as := &atomState{idx: make([]*rowIndex, len(p.atomIdxCols[i]))}
	if p.directAtom[i] {
		as.set = tableRows(t, len(rel.Cols))
	} else {
		as.set = setOfRows(rel)
	}
	for x, cols := range p.atomIdxCols[i] {
		as.idx[x] = indexRows(rel, cols)
	}
	return as
}

// newNodeState builds the maintained form of node u from its flat relation
// and, for a projecting node, the derivation counts of the unfiltered bag
// projection (nil otherwise: without projection every row has exactly one
// derivation).
func newNodeState(p *Plan, u int, rel *Relation, counts *storage.TupleMap) *nodeState {
	sup := storage.NewPMap[int64](len(p.bagVars[u])).Edit()
	for i := 0; i < rel.Len(); i++ {
		n := int64(1)
		if counts != nil {
			n = counts.Get(rel.Row(i))
		}
		sup.Set(rel.Row(i), n)
	}
	ns := &nodeState{sup: sup.Freeze(), byChild: make([]*rowIndex, len(p.childJoins[u]))}
	for k, cj := range p.childJoins[u] {
		if len(cj.uPos) > 0 {
			ns.byChild[k] = indexRows(rel, cj.uPos)
		}
	}
	return ns
}

// buildMaint converts a flat-bound query (every atom and node relation
// present as a Relation) into maintained form, and returns the cover-based
// node relations it holds. After BindMaintained, projecting nodes re-run
// their input join once to learn the derivation counts and the others load
// their rows as they are; after Bind, whose nodes are bottom-up reduced,
// every node's cover-based bag is rebuilt with its counts. This is the
// one-off O(database) cost of the first maintenance, after which flat
// relations are only ever produced on demand.
func (b *BoundQuery) buildMaint(ctx context.Context) (*maintState, []*Relation, error) {
	p := b.prep.plan
	eng := b.prep.eng
	ms := &maintState{atoms: make([]*atomState, len(p.query.Atoms)), nodes: make([]*nodeState, p.d.Nodes())}
	for i := range ms.atoms {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		ms.atoms[i] = newAtomState(p, i, b.inst.AtomRels[i], b.cdb.sdb.Table(p.query.Atoms[i].Rel))
	}
	nodeRels := b.nodeRels
	rejoin := allNodes(p.d.Nodes())
	if b.reduced {
		nodeRels = make([]*Relation, p.d.Nodes())
	} else {
		rejoin = slices.DeleteFunc(rejoin, func(u int) bool { return !p.projects[u] })
	}
	getEdge, err := edgeRelations(ctx, p, b.inst, rejoin)
	if err != nil {
		return nil, nil, err
	}
	err = parForEach(ctx, eng.par(), allNodes(p.d.Nodes()), func(u int) error {
		var counts *storage.TupleMap
		switch {
		case b.reduced:
			nodeRels[u], counts = materialiseNodeWithSupport(p, b.inst, u, getEdge)
			if !p.projects[u] {
				counts = nil
			}
		case p.projects[u]:
			counts = projectCounts(joinLambda(p, u, getEdge), p.bagVars[u])
		}
		ms.nodes[u] = newNodeState(p, u, nodeRels[u], counts)
		eng.nodeRebuilds.Add(1)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return ms, nodeRels, nil
}

// patchAtom derives atom i's successor state under d. set is the successor
// tuple set when the caller already has it (a direct atom's new table map);
// otherwise it is derived by patching the old one.
func patchAtom(p *Plan, i int, old *atomState, set *rowSet, d *relDelta, mc *maintCtx) *atomState {
	if set == nil {
		w := old.set.Edit()
		for r := 0; r < d.minus.Len(); r++ {
			w.Delete(d.minus.Row(r))
		}
		for r := 0; r < d.plus.Len(); r++ {
			w.Set(d.plus.Row(r), struct{}{})
		}
		mc.rows += uint64(d.rows() + w.Copied())
		set = w.Freeze()
	}
	as := &atomState{set: set, idx: make([]*rowIndex, len(old.idx))}
	for x, cols := range p.atomIdxCols[i] {
		ix := edit(old.idx[x])
		patchIndex(&ix, cols, d, nil, mc)
		as.idx[x] = ix.done(mc)
	}
	return as
}

// deltaJoin runs one delta plan: for a source row, every derivation of node
// tuples through it — the row joined with the node's other inputs in the
// planned probe order, projected to the bag. atoms holds the state to probe
// each atom in (old or new, per the caller's telescoping); emit receives each
// derivation's bag tuple (reused between calls).
type deltaJoin struct {
	p     *Plan
	dp    *deltaPlan
	atoms []*atomState
	mc    *maintCtx
	emit  func(bag []Value)

	acc, key, bag []Value
}

func newDeltaJoin(p *Plan, dp *deltaPlan, atoms []*atomState, mc *maintCtx, emit func(bag []Value)) *deltaJoin {
	return &deltaJoin{p: p, dp: dp, atoms: atoms, mc: mc, emit: emit,
		acc: make([]Value, dp.width), key: make([]Value, dp.width), bag: make([]Value, len(dp.bagFrom))}
}

func (j *deltaJoin) run(src []Value) {
	copy(j.acc, src)
	j.step(0, len(src))
}

// step probes the s-th input with the first width columns of acc bound.
func (j *deltaJoin) step(s, width int) {
	if s == len(j.dp.steps) {
		j.emit(project(j.bag, j.acc, j.dp.bagFrom))
		return
	}
	st := &j.dp.steps[s]
	as := j.atoms[st.atom]
	j.mc.rows++
	switch st.idx {
	case stepMember:
		// keyFrom lists every column of the atom in order: the key is the
		// atom's tuple.
		if as.set.Has(project(j.key, j.acc, st.keyFrom)) {
			j.step(s+1, width)
		}
	case stepScan:
		as.set.Range(func(row []Value, _ struct{}) bool {
			j.mc.rows++
			j.extend(st, s, width, row)
			return true
		})
	default:
		bucket, _ := as.idx[st.idx].Get(project(j.key, j.acc, st.keyFrom))
		a := len(j.p.atomVars[st.atom])
		j.mc.rows += uint64(len(bucket) / a)
		for i := 0; i+a <= len(bucket); i += a {
			j.extend(st, s, width, bucket[i:i+a])
		}
	}
}

// extend binds the step's new variables from a matching row and moves on.
func (j *deltaJoin) extend(st *deltaStep, s, width int, row []Value) {
	for x, c := range st.extFrom {
		j.acc[width+x] = row[c]
	}
	j.step(s+1, width+len(st.extFrom))
}

// nodeUpdate is everything maintainNode needs to know about one Rebind: the
// predecessor and successor atom states and the atoms' deltas (nil for clean
// atoms).
type nodeUpdate struct {
	oldAtoms, newAtoms []*atomState
	deltas             []*relDelta
}

// maintainNode derives node u's successor state by delta-joining each
// changed input through the others — inputs already processed in their new
// state, those still to come in their old one, the standard telescoping of a
// finite difference — and applying the result as ±1 derivation counts. The
// node's own delta is the set of tuples whose count crossed zero.
func maintainNode(p *Plan, u int, old *nodeState, nu *nodeUpdate, mc *maintCtx) (*nodeState, *relDelta) {
	bag := p.bagVars[u]
	sup := edit(old.sup)
	// before records, per bag tuple the delta reaches, whether it was in the
	// node before (so crossings can be classified afterwards).
	before := storage.NewTupleMap(len(bag), 16)
	// atoms is the telescoping view: every input starts in its old state and
	// moves to its new one once its own delta has been joined through.
	atoms := append([]*atomState(nil), nu.oldAtoms...)
	for x, src := range p.inputs[u] {
		d := nu.deltas[src]
		if d == nil {
			continue
		}
		sign := int64(1)
		join := newDeltaJoin(p, &p.deltaPlans[u][x], atoms, mc, func(row []Value) {
			cur, _ := sup.cur.Get(row)
			if _, isNew := before.Insert(row); isNew && cur > 0 {
				before.Add(row, 1)
			}
			if cur += sign; cur == 0 {
				sup.w().Delete(row)
			} else {
				sup.w().Set(row, cur)
			}
			mc.rows += 2
		})
		for r := 0; r < d.plus.Len(); r++ {
			join.run(d.plus.Row(r))
		}
		sign = -1
		for r := 0; r < d.minus.Len(); r++ {
			join.run(d.minus.Row(r))
		}
		atoms[src] = nu.newAtoms[src]
	}
	d := newRelDelta(bag)
	for slot := int32(0); int(slot) < before.Len(); slot++ {
		row := before.Key(slot)
		was, is := before.Val(slot) > 0, sup.cur.Has(row)
		if is && !was {
			d.plus.Add(row...)
		} else if was && !is {
			d.minus.Add(row...)
		}
	}
	mc.rows += uint64(before.Len())
	ns := &nodeState{sup: sup.done(mc), byChild: old.byChild}
	if !d.empty() {
		ns.byChild = make([]*rowIndex, len(old.byChild))
		for k, cj := range p.childJoins[u] {
			if old.byChild[k] != nil {
				ix := edit(old.byChild[k])
				patchIndex(&ix, cj.uPos, d, nil, mc)
				ns.byChild[k] = ix.done(mc)
			}
		}
	}
	return ns, d
}

// rebuildNode re-materialises node u from the (flat) relations of its inputs
// — the fallback for a delta the cost model prices above a rebuild — and
// diffs the result against the old state, so everything downstream still
// receives an exact delta.
func rebuildNode(p *Plan, u int, old *nodeState, inst *Instance, mc *maintCtx) (*nodeState, *Relation, *relDelta) {
	rel, counts := materialiseNodeWithSupport(p, inst, u, inst.EdgeRelation)
	if !p.projects[u] {
		counts = nil
	}
	mc.rows += uint64(2*rel.Len() + old.sup.Len())
	return newNodeState(p, u, rel, counts), rel, diffRows(old.sup, rel)
}
