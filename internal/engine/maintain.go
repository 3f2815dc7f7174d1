package engine

import (
	"context"
	"slices"

	"d2cq/internal/storage"
)

// This file holds the maintained form of a bound query's atom and node
// relations. A fresh Bind keeps them as flat Relations — the fastest thing
// to build and scan, and all a bind-and-evaluate workload ever pays for. The
// first Rebind that sees a visible change converts them, once, into
// persistent tuple maps (storage.PMap): each map is bulk-built by
// storage.BuildPMap in one pass over its flat relation, with a few
// allocations per map rather than several per row. From then on every Rebind
// derives its successor state by patching exactly the touched keys, while
// readers of the old snapshot keep the old roots. Identity is the tuple
// itself — there are no row numbers to keep stable and no tombstones to
// compact.

// rowSet is a persistent set of tuples; rowIndex maps a key (the projection
// of a row onto some of its columns) to the flat bucket of full rows carrying
// it. Buckets are immutable: a patch installs a copy.
type (
	rowSet   = storage.PMap[struct{}]
	rowIndex = storage.PMap[[]Value]
)

// atomState is one input relation of the node joins — an atom, or a node's
// key set: its tuples over its columns (Plan.atomVars), indexed on every
// column subset a delta plan probes (Plan.atomIdxCols).
type atomState struct {
	set *rowSet
	idx []*rowIndex
}

// nodeState is one decomposition node's bottom-up reduced relation B(u):
// every bag tuple with its derivation count in the join of the node's inputs
// — atoms and children's key sets (always positive — a tuple whose last
// derivation goes away leaves the map) — indexed on the columns shared with
// the parent (nil for the root and a node sharing none), whose keys are the
// node's key set.
type nodeState struct {
	sup      *storage.PMap[int64]
	byParent *rowIndex
}

// maintState is the maintained form of everything Bind materialises: every
// join input (atoms, then key sets; nil for a node without one) and every
// node. Immutable once published on a BoundQuery.
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

// newRelDelta returns an empty delta over cols, which both sides share
// (columns are never written once a relation is built). The delta and its
// two relations are one allocation.
func newRelDelta(cols []string) *relDelta {
	d := &struct {
		relDelta
		plus, minus Relation
	}{plus: Relation{Cols: cols}, minus: Relation{Cols: cols}}
	d.relDelta = relDelta{plus: &d.plus, minus: &d.minus}
	return &d.relDelta
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
// patch touched — empty until the first add. A one-tuple flush puts a row or
// two in most of them, so the first workSetFlat rows are kept flat and
// deduplicated by scanning; a set that grows past them moves to a TupleMap.
type workSet struct {
	width, n int
	flat     []Value // the rows while there are at most workSetFlat
	rows     *storage.TupleMap
}

const workSetFlat = 8

func (w *workSet) add(row []Value) {
	if w.rows != nil {
		w.rows.Insert(row)
		return
	}
	a := len(row)
	for i := 0; i < w.n; i++ {
		if slices.Equal(w.flat[i*a:(i+1)*a], row) {
			return
		}
	}
	switch w.n {
	case workSetFlat:
		rows := storage.NewTupleMap(a, 2*workSetFlat)
		w.each(func(r []Value) { rows.Insert(r) })
		rows.Insert(row)
		w.rows, w.flat = rows, nil
		return
	case 0:
		w.width, w.flat = a, make([]Value, 0, workSetFlat*a)
	}
	w.flat = append(w.flat, row...)
	w.n++
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
	if w.rows != nil {
		for s := int32(0); int(s) < w.rows.Len(); s++ {
			f(w.rows.Key(s))
		}
		return
	}
	for i := 0; i < w.n; i++ {
		f(w.flat[i*w.width : (i+1)*w.width])
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

// indexRows builds the index of rel's rows on cols from scratch: the bulk
// build groups the rows by key, and each key's bucket — its rows in rel's
// order — is the next slice of one arena holding every row.
func indexRows(rel *Relation, cols []int) *rowIndex {
	a := len(rel.Cols)
	keys := make([]Value, 0, rel.Len()*len(cols))
	for i := 0; i < rel.Len(); i++ {
		for _, c := range cols {
			keys = append(keys, rel.Data[i*a+c])
		}
	}
	arena := make([]Value, 0, len(rel.Data))
	return storage.BuildPMap(len(cols), keys, rel.Len(), func(rows []int32) []Value {
		from := len(arena)
		for _, i := range rows {
			arena = append(arena, rel.Row(int(i))...)
		}
		return arena[from:len(arena):len(arena)]
	})
}

// setOfRows builds the tuple set of rel's rows from scratch.
func setOfRows(rel *Relation) *rowSet {
	return storage.BuildPMap(len(rel.Cols), rel.Data, rel.Len(), func([]int32) struct{} { return struct{}{} })
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

// newAtomState builds the maintained form of input i's flat relation: atom i
// over the table t, or a key set (t nil). An atom whose relation is the
// table itself (Plan.directAtom) shares the table's row map instead of
// building a set of its own.
func newAtomState(p *Plan, i int, rel *Relation, t *storage.Table) *atomState {
	as := &atomState{idx: make([]*rowIndex, len(p.atomIdxCols[i]))}
	if t != nil && p.directAtom[i] {
		as.set = t.RowMap()
	} else {
		as.set = setOfRows(rel)
	}
	for x, cols := range p.atomIdxCols[i] {
		as.idx[x] = indexRows(rel, cols)
	}
	return as
}

// newNodeState builds the maintained form of node u from its flat relation
// and, for a projecting node, the derivation counts of its bag tuples (nil
// otherwise: without projection every row has exactly one derivation).
func newNodeState(p *Plan, u int, rel *Relation, counts *storage.TupleMap) *nodeState {
	ns := &nodeState{sup: storage.BuildPMap(len(p.bagVars[u]), rel.Data, rel.Len(), func(at []int32) int64 {
		if counts == nil {
			return 1
		}
		return counts.Get(rel.Row(int(at[0])))
	})}
	if len(p.sharedPos[u]) > 0 {
		ns.byParent = indexRows(rel, p.sharedPos[u])
	}
	return ns
}

// buildMaint converts a freshly bound query — every atom and node relation
// present as a Relation, the nodes bottom-up reduced by Bind — into
// maintained form. A projecting node re-runs its reduced join once, over
// Bind's messages, to learn the derivation counts; the others load their
// rows as they are. A node's key set is the keys of its message. This is the
// one-off O(database) cost of the first maintenance — every map bulk-built,
// so its allocations do not grow with the rows — after which flat relations
// are only ever produced on demand.
func (b *BoundQuery) buildMaint(ctx context.Context) (*maintState, error) {
	p := b.prep.plan
	eng := b.prep.eng
	ms := &maintState{atoms: make([]*atomState, p.keyInput(p.d.Nodes())), nodes: make([]*nodeState, p.d.Nodes())}
	for i, a := range p.query.Atoms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ms.atoms[i] = newAtomState(p, i, b.inst.AtomRels[i], b.cdb.sdb.Table(a.Rel))
	}
	projecting := slices.DeleteFunc(allNodes(p.d.Nodes()), func(u int) bool { return !p.projects[u] })
	getEdge, err := edgeRelations(ctx, p, b.inst, projecting)
	if err != nil {
		return nil, err
	}
	msgs := b.countSt.Load().msgs
	for u := range ms.nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var counts *storage.TupleMap
		if p.projects[u] {
			counts = projectCounts(nodeJoin(p, b.inst, u, getEdge, msgInputs(p, u, msgs)), p.bagVars[u])
		}
		ms.nodes[u] = newNodeState(p, u, b.nodeRels[u], counts)
		if len(p.shared[u]) > 0 {
			ms.atoms[p.keyInput(u)] = newAtomState(p, p.keyInput(u), keysOf(msgs[u], p.shared[u]), nil)
		}
		eng.nodeRebuilds.Add(1)
	}
	return ms, nil
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
// each input in (old or new, per the caller's telescoping); emit receives
// each derivation's bag tuple (reused between calls).
type deltaJoin struct {
	p     *Plan
	dp    *deltaPlan
	atoms []*atomState
	mc    *maintCtx
	emit  func(bag []Value)

	acc, key, bag []Value
}

func newDeltaJoin(p *Plan, dp *deltaPlan, atoms []*atomState, mc *maintCtx, emit func(bag []Value)) *deltaJoin {
	buf := make([]Value, 2*dp.width+len(dp.bagFrom))
	return &deltaJoin{p: p, dp: dp, atoms: atoms, mc: mc, emit: emit,
		acc: buf[:dp.width:dp.width], key: buf[dp.width : 2*dp.width : 2*dp.width], bag: buf[2*dp.width:]}
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
// predecessor and successor input states and the inputs' deltas (nil for
// clean inputs), atoms and key sets alike.
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
	// moves to its new one once its own delta has been joined through — which
	// only a later delta sees, so the view is copied only then.
	atoms, own, moved := nu.oldAtoms, false, -1
	for x, src := range p.inputs[u] {
		d := nu.deltas[src]
		if d == nil {
			continue
		}
		if moved >= 0 {
			if !own {
				atoms, own = slices.Clone(atoms), true
			}
			atoms[moved] = nu.newAtoms[moved]
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
		moved = src
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
	ns := &nodeState{sup: sup.done(mc), byParent: old.byParent}
	if !d.empty() && old.byParent != nil {
		ix := edit(old.byParent)
		patchIndex(&ix, p.sharedPos[u], d, nil, mc)
		ns.byParent = ix.done(mc)
	}
	return ns, d
}

// rebuildNode re-materialises node u from the flat relations of its inputs —
// its atoms in inst, its children's key sets in keys (Plan.childJoins order)
// — the fallback for a delta the cost model prices above a rebuild, and for a
// nullary key set that flipped. It diffs the result against the old state,
// so everything downstream still receives an exact delta.
func rebuildNode(p *Plan, u int, old *nodeState, inst *Instance, keys []joinInput, mc *maintCtx) (*nodeState, *Relation, *relDelta) {
	join := nodeJoin(p, inst, u, inst.EdgeRelation, keys)
	rel := join.Project(p.bagVars[u])
	var counts *storage.TupleMap
	if p.projects[u] {
		counts = projectCounts(join, p.bagVars[u])
	}
	mc.rows += uint64(2*rel.Len() + old.sup.Len())
	return newNodeState(p, u, rel, counts), rel, diffRows(old.sup, rel)
}

// keyDelta is the change of node u's key set — its rows projected onto the
// columns shared with its parent — under the node delta d, read off the
// node's parent-side index before (old) and after (cur): the keys whose
// bucket appeared or vanished.
func keyDelta(p *Plan, u int, old, cur *rowIndex, d *relDelta, mc *maintCtx) *relDelta {
	kd := newRelDelta(p.shared[u])
	var seen *storage.TupleMap // the keys visited, once a second row could repeat one
	if d.rows() > 1 {
		seen = storage.NewTupleMap(len(p.sharedPos[u]), d.rows())
	}
	buf := make([]Value, len(p.sharedPos[u]))
	visit := func(rel *Relation) {
		for r := 0; r < rel.Len(); r++ {
			key := project(buf, rel.Row(r), p.sharedPos[u])
			if seen != nil {
				if _, isNew := seen.Insert(key); !isNew {
					continue
				}
			}
			switch was, is := old.Has(key), cur.Has(key); {
			case is && !was:
				kd.plus.Add(key...)
			case was && !is:
				kd.minus.Add(key...)
			}
		}
	}
	visit(d.plus)
	visit(d.minus)
	mc.rows += uint64(2 * d.rows())
	return kd
}
