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
//
// There is one map per node key. An atom keeps its tuple set and the indexes
// its delta plans probe. A node keeps B(u) with its derivation counts and its
// rows grouped by each tree edge's key (nodeState): the grouping by the
// parent's columns carries each key's counting sum beside its rows, and its
// keys are the node's key set — the input of the parent's joins, which keeps
// no set of its own, only the indexes on partial columns that a plan joining
// covers that share no variable probes.

// rowSet is a persistent set of tuples; rowIndex maps a key (the projection
// of a row onto some of its columns) to the flat bucket of full rows carrying
// it. Buckets are immutable: a patch installs a copy.
type (
	rowSet   = storage.PMap[struct{}]
	rowIndex = storage.PMap[[]Value]
)

// atomState is one input relation of the node joins — an atom, or a child's
// key set: its tuples over its columns (Plan.atomVars), indexed on every
// column subset a delta plan probes (Plan.atomIdxCols). An atom's tuples are
// a set of their own; a key set's are the keys of the child's byParent, so
// it keeps no set — except the key set of a child sharing no column with its
// parent, a nullary set holding the empty tuple while the child has a row.
type atomState struct {
	set  *rowSet
	keys *storage.PMap[keyGroup]
	idx  []*rowIndex
}

// has reports whether t is a tuple of the input.
func (as *atomState) has(t []Value) bool {
	if as.keys != nil {
		return as.keys.Has(t)
	}
	return as.set.Has(t)
}

// len returns the number of tuples of the input.
func (as *atomState) len() int {
	if as.keys != nil {
		return as.keys.Len()
	}
	return as.set.Len()
}

// scan calls f with every tuple of the input.
func (as *atomState) scan(f func(t []Value)) {
	if as.keys != nil {
		as.keys.Range(func(t []Value, _ keyGroup) bool {
			f(t)
			return true
		})
		return
	}
	as.set.Range(func(t []Value, _ struct{}) bool {
		f(t)
		return true
	})
}

// keyGroup is one key of a node's parent grouping: the rows of B(u) carrying
// it, flat, and the counting DP's sum over them — positive, since every row
// of B(u) has a partner in each child, so the key is in the node's key set
// exactly while it has a group.
type keyGroup struct {
	rows []Value
	sum  int64
}

// nodeState is the one maintained structure of a decomposition node: its
// bottom-up reduced relation B(u) — every bag tuple with its derivation count
// in the join of the node's inputs, atoms and children's key sets (always
// positive: a tuple whose last derivation goes away leaves the map) — and
// B(u) grouped by the columns shared with the parent, each key with its
// counting sum (byParent: the node's key set, its counting message and the
// enumeration's probe at once; nil for the root and a node sharing none,
// which keep their one sum beside it) and by the columns shared with each
// child (up: the re-evaluation's and the upward walk's probe).
type nodeState struct {
	sup      *storage.PMap[int64]
	byParent *storage.PMap[keyGroup]
	up       []*rowIndex // per child join; nil entry for a child sharing no column
	sum      int64       // without byParent: the DP's sum over B(u), at the root |q(D)|
}

// maintState is the maintained form of everything Bind materialises: every
// join input (atoms, then key sets; nil for the root) and every node.
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

func (w *workSet) len() int {
	if w.rows != nil {
		return w.rows.Len()
	}
	return w.n
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

// withRow returns bucket with row appended, in a new array: buckets are
// shared with the snapshots before the patch.
func withRow(bucket, row []Value) []Value {
	return append(bucket[:len(bucket):len(bucket)], row...)
}

// withoutRow returns bucket without row, in a new array — bucket itself when
// row is not in it.
func withoutRow(bucket, row []Value) []Value {
	a := len(row)
	for i := 0; i+a <= len(bucket); i += a {
		if slices.Equal(bucket[i:i+a], row) {
			out := make([]Value, 0, len(bucket)-a)
			return append(append(out, bucket[:i]...), bucket[i+a:]...)
		}
	}
	return bucket
}

// patchIndex carries an index on cols across d: leaving rows out (a key with
// its last row), entering rows in.
func patchIndex(ix *editor[[]Value], cols []int, d *relDelta, mc *maintCtx) {
	key := make([]Value, len(cols))
	for r := 0; r < d.minus.Len(); r++ {
		row := d.minus.Row(r)
		bucket, _ := ix.cur.Get(project(key, row, cols))
		if rest := withoutRow(bucket, row); len(rest) == 0 {
			ix.w().Delete(key)
		} else {
			ix.w().Set(key, rest)
		}
	}
	for r := 0; r < d.plus.Len(); r++ {
		row := d.plus.Row(r)
		bucket, _ := ix.cur.Get(project(key, row, cols))
		ix.w().Set(key, withRow(bucket, row))
	}
	mc.rows += uint64(d.rows())
}

// patchIndexes carries input i's indexes (Plan.atomIdxCols) across d,
// returning idx itself when there is nothing to patch.
func patchIndexes(p *Plan, i int, idx []*rowIndex, d *relDelta, mc *maintCtx) []*rowIndex {
	if d.empty() || len(idx) == 0 {
		return idx
	}
	out := make([]*rowIndex, len(idx))
	for x, cols := range p.atomIdxCols[i] {
		ix := edit(idx[x])
		patchIndex(&ix, cols, d, mc)
		out[x] = ix.done(mc)
	}
	return out
}

// indexRows builds a grouping of rel's rows on cols from scratch: the bulk
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

// newAtomState builds the maintained form of atom i's flat relation rel over
// the table t. An atom whose relation is the table itself
// (Plan.directAtom) shares the table's row map instead of building a set of
// its own.
func newAtomState(p *Plan, i int, rel *Relation, t *storage.Table) *atomState {
	as := &atomState{idx: indexesOf(p, i, rel)}
	if t != nil && p.directAtom[i] {
		as.set = t.RowMap()
	} else {
		as.set = setOfRows(rel)
	}
	return as
}

// indexesOf builds input i's indexes (Plan.atomIdxCols) over its flat
// relation rel.
func indexesOf(p *Plan, i int, rel *Relation) []*rowIndex {
	if len(p.atomIdxCols[i]) == 0 {
		return nil
	}
	idx := make([]*rowIndex, len(p.atomIdxCols[i]))
	for x, cols := range p.atomIdxCols[i] {
		idx[x] = indexRows(rel, cols)
	}
	return idx
}

// newSup builds B(u) from node u's flat relation and, for a projecting node,
// the derivation counts of its bag tuples (nil otherwise: without projection
// every row has exactly one derivation).
func newSup(p *Plan, u int, rel *Relation, counts *storage.TupleMap) *storage.PMap[int64] {
	return storage.BuildPMap(len(p.bagVars[u]), rel.Data, rel.Len(), func(at []int32) int64 {
		if counts == nil {
			return 1
		}
		return counts.Get(rel.Row(int(at[0])))
	})
}

// buildMaint converts a freshly bound query — every atom and node relation
// present as a Relation, the nodes bottom-up reduced by Bind, the counting DP
// flat — into maintained form. A node loads its rows as they are, with the
// derivation counts Bind kept for a projecting node. Its parent grouping is
// Bind's layout (countState.groups) taken over as it is: one key per key of
// the node's message, each with the message's sum and its bucket of Bind's
// rows, so its keys are the node's key set, which the parent's delta plans
// read (a node sharing no column has the nullary key set, present while its
// message is non-empty). This is the one-off O(database) cost of the first
// maintenance — every map bulk-built, so its allocations do not grow with the
// rows — after which the query keeps no flat relation.
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
	cs := b.countSt
	for u := range ms.nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rel := b.enumSt.rels[u]
		ns := &nodeState{sup: newSup(p, u, rel, cs.counts[u]), up: make([]*rowIndex, len(p.childJoins[u]))}
		for k, cj := range p.childJoins[u] {
			if len(cj.uPos) > 0 {
				ns.up[k] = indexRows(rel, cj.uPos)
			}
		}
		switch g := &cs.groups[u]; {
		case g.keys == nil:
			ns.sum = cs.total
		case len(p.sharedPos[u]) == 0:
			if g.keys.Len() > 0 {
				ns.sum = g.keys.Val(0)
			}
			ms.atoms[p.keyInput(u)] = &atomState{set: setOfRows(keysOf(g.keys, nil))}
		default:
			ns.byParent = storage.BuildPMap(len(p.sharedPos[u]), g.keys.Keys(), g.keys.Len(), func(at []int32) keyGroup {
				return keyGroup{rows: g.bucket(at[0]), sum: g.keys.Val(at[0])}
			})
			k := p.keyInput(u)
			ms.atoms[k] = &atomState{keys: ns.byParent, idx: indexesOf(p, k, keysOf(g.keys, p.shared[u]))}
		}
		ms.nodes[u] = ns
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
	return &atomState{set: set, idx: patchIndexes(p, i, old.idx, d, mc)}
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
		if as.has(project(j.key, j.acc, st.keyFrom)) {
			j.step(s+1, width)
		}
	case stepScan:
		as.scan(func(row []Value) {
			j.mc.rows++
			j.extend(st, s, width, row)
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

// maintainNode derives node u's successor B(u) by delta-joining each changed
// input through the others — inputs already processed in their new state,
// those still to come in their old one, the standard telescoping of a finite
// difference — and applying the result as ±1 derivation counts. The node's
// own delta is the set of tuples whose count crossed zero.
func maintainNode(p *Plan, u int, old *nodeState, nu *nodeUpdate, mc *maintCtx) (*storage.PMap[int64], *relDelta) {
	bag := p.bagVars[u]
	sup := edit(old.sup)
	// before records, per bag tuple the delta reaches, whether it was in the
	// node before (so crossings can be classified afterwards). It is sized
	// for one tuple per changed input row, so a large delta does not grow it
	// step by step.
	rows := 16
	for _, src := range p.inputs[u] {
		if d := nu.deltas[src]; d != nil {
			rows += d.rows()
		}
	}
	before := storage.NewTupleMap(len(bag), rows)
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
			d.plus.addRow(row)
		} else if was && !is {
			d.minus.addRow(row)
		}
	}
	mc.rows += uint64(before.Len())
	return sup.done(mc), d
}
