package engine

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"d2cq/internal/storage"
)

// run is the data-dependent state of one evaluation of a Plan over one
// compiled Instance: the materialised node relations. A run belongs to a
// single evaluation call and is never shared between goroutines; the Plan it
// points at is immutable. par is the bounded worker count of the parallel
// passes (<= 1 means sequential).
type run struct {
	plan     *Plan
	inst     *Instance
	nodeRels []*Relation
	par      int
}

// errUnsat is the internal early-exit signal of the parallel bottom-up pass:
// some node relation emptied out, so the query is unsatisfiable.
var errUnsat = errors.New("engine: node relation emptied")

// parForEach applies f to every item, using up to par workers when par > 1.
// The first error stops the remaining work and is returned.
func parForEach(ctx context.Context, par int, items []int, f func(int) error) error {
	if par <= 1 || len(items) <= 1 {
		for _, it := range items {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := f(it); err != nil {
				return err
			}
		}
		return nil
	}
	if par > len(items) {
		par = len(items)
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		stop     atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := f(items[i]); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}

// allNodes returns 0..n-1 (the work list of the materialisation pass).
func allNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// parRangeMin is the row count below which range-splitting a loop is not
// worth the goroutine overhead.
const parRangeMin = 2048

// leftoverPar divides a worker budget among width concurrent tasks: the
// row-range parallelism each task may use on top without oversubscribing
// the pool (at least 1).
func leftoverPar(par, width int) int {
	if width < 1 {
		width = 1
	}
	if rp := par / width; rp > 1 {
		return rp
	}
	return 1
}

// parRanges splits [0,n) into up to par contiguous ranges and runs f on them
// concurrently. f must only touch state disjoint between ranges (and only
// read shared state); there is no error path — callers needing cancellation
// check their context around the call.
func parRanges(par, n int, f func(lo, hi int)) {
	if par <= 1 || n < parRangeMin {
		f(0, n)
		return
	}
	if par > n {
		par = n
	}
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		lo, hi := w*n/par, (w+1)*n/par
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(lo, hi)
		}()
	}
	wg.Wait()
}

// edgeKey renders a sorted variable set as the cache key of its λ-edge
// relation.
func edgeKey(names []string) string { return strings.Join(names, "\x00") }

// joinLambda builds the full (pre-projection) join of a node's λ edge
// relations, smallest first so intermediates stay tight: the next relation
// joined is the smallest that shares a column with the join so far, so a
// cross product happens only when none does. edge supplies the relation of
// a λ variable set (shared across nodes).
func joinLambda(p *Plan, u int, edge func([]string) *Relation) *Relation {
	rels := make([]*Relation, len(p.lambdaVars[u]))
	for i, names := range p.lambdaVars[u] {
		rels[i] = edge(names)
	}
	if len(rels) == 0 {
		acc := NewRelation()
		acc.AddEmpty()
		return acc
	}
	sort.SliceStable(rels, func(i, j int) bool { return rels[i].Len() < rels[j].Len() })
	acc, rest := rels[0], rels[1:]
	for len(rest) > 0 {
		next := 0
		for i, er := range rest {
			if shared, _, _ := sharedColumns(acc, er); len(shared) > 0 {
				next = i
				break
			}
		}
		acc = Join(acc, rest[next])
		rest = append(rest[:next], rest[next+1:]...)
	}
	return acc
}

// materialiseNode builds the relation of one decomposition node: the λ join
// projected to the bag, then filtered by every atom assigned to the node.
func materialiseNode(p *Plan, inst *Instance, u int, edge func([]string) *Relation) *Relation {
	acc := joinLambda(p, u, edge).Project(p.bagVars[u])
	for _, ai := range p.filters[u] {
		acc = Semijoin(acc, inst.AtomRels[ai])
	}
	return acc
}

// projectCounts projects a relation onto cols, returning the multiplicity
// of every projected tuple — the derivation counts the incremental engine
// maintains under deltas.
func projectCounts(acc *Relation, cols []string) *storage.TupleMap {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = acc.ColIndex(c)
		if idx[i] < 0 {
			panic("engine: projection onto missing column " + c)
		}
	}
	m := storage.NewTupleMap(len(cols), acc.Len())
	buf := make([]Value, len(cols))
	for i := 0; i < acc.Len(); i++ {
		row := acc.Row(i)
		for j, x := range idx {
			buf[j] = row[x]
		}
		m.Add(buf, 1)
	}
	return m
}

// relFromSupport lists the tuples with positive support, in slot (first
// derivation) order — the same order Relation.Project produces, so a node
// materialised through its support map equals one materialised directly.
func relFromSupport(sup *storage.TupleMap, cols []string) *Relation {
	out := NewRelation(cols...)
	for slot := int32(0); int(slot) < sup.Len(); slot++ {
		if sup.Val(slot) <= 0 {
			continue
		}
		if len(cols) == 0 {
			out.AddEmpty()
		} else {
			out.Add(sup.Key(slot)...)
		}
	}
	return out
}

// materialiseNodeWithSupport is materialiseNode keeping the derivation
// counts of the unfiltered bag projection alongside, so later deltas can
// maintain the node without re-running the λ join.
func materialiseNodeWithSupport(p *Plan, inst *Instance, u int, edge func([]string) *Relation) (*Relation, *storage.TupleMap) {
	sup := projectCounts(joinLambda(p, u, edge), p.bagVars[u])
	rel := relFromSupport(sup, p.bagVars[u])
	for _, ai := range p.filters[u] {
		rel = Semijoin(rel, inst.AtomRels[ai])
	}
	return rel, sup
}

// newRun materialises the node relations of the plan over inst. Distinct λ
// edge relations are built once and shared read-only across nodes; with
// par > 1 the per-node work runs on a bounded worker pool.
func newRun(ctx context.Context, p *Plan, inst *Instance, par int) (*run, error) {
	r := &run{plan: p, inst: inst, nodeRels: make([]*Relation, p.d.Nodes()), par: par}
	// One edge relation per distinct λ variable set, shared across nodes.
	edges := map[string]*Relation{}
	for u := 0; u < p.d.Nodes(); u++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, names := range p.lambdaVars[u] {
			k := edgeKey(names)
			if _, ok := edges[k]; !ok {
				edges[k] = inst.EdgeRelation(names)
			}
		}
	}
	getEdge := func(names []string) *Relation { return edges[edgeKey(names)] }
	materialise := func(u int) error {
		r.nodeRels[u] = materialiseNode(p, inst, u, getEdge)
		return nil
	}
	if err := parForEach(ctx, par, allNodes(p.d.Nodes()), materialise); err != nil {
		return nil, err
	}
	return r, nil
}

// bool_ decides satisfiability by a bottom-up Yannakakis semijoin pass:
// semijoin every parent with its children, children strictly first;
// satisfiable iff no node relation empties out. Levels of the decomposition
// tree are processed in parallel when the run has workers.
func (r *run) bool_(ctx context.Context) (bool, error) {
	for _, level := range r.plan.levels {
		err := parForEach(ctx, r.par, level, func(u int) error {
			rel := r.nodeRels[u]
			for _, cj := range r.plan.childJoins[u] {
				rel = semijoinOn(rel, r.nodeRels[cj.child], cj.shared, cj.uPos, cj.cPos)
				if rel.Len() == 0 {
					return errUnsat
				}
			}
			r.nodeRels[u] = rel
			if rel.Len() == 0 {
				return errUnsat
			}
			return nil
		})
		if errors.Is(err, errUnsat) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
	}
	return true, nil
}

// pairGroup is the data-dependent grouping of one parent-child edge of the
// counting DP: each side's rows mapped to dense key slots over the shared
// columns. Building a grouping does all the hashing of the count-join once;
// computing a DP vector afterwards is pure array arithmetic, so the parallel
// sweep touches no hash tables. Groupings depend only on the two relations
// (never on the DP values), which makes them independent across ALL pairs —
// even a path-shaped decomposition parallelises.
type pairGroup struct {
	slots int
	uSlot []int32 // node row → key slot, -1 when no child row shares the key
	cSlot []int32 // child row → key slot
}

// buildPairGroup groups one (node, child) pair by the shared join columns.
// The child side builds the key map; the node side probes it read-only, so
// the probe scan splits over row ranges on up to rowPar workers.
func buildPairGroup(p *Plan, u, k int, uRel, cRel *Relation, rowPar int) pairGroup {
	cj := p.childJoins[u][k]
	var g pairGroup
	m := storage.NewTupleMap(len(cj.cPos), cRel.Len())
	buf := make([]Value, len(cj.cPos))
	g.cSlot = make([]int32, cRel.Len())
	for i := 0; i < cRel.Len(); i++ {
		row := cRel.Row(i)
		for j, x := range cj.cPos {
			buf[j] = row[x]
		}
		slot, _ := m.Insert(buf)
		g.cSlot[i] = slot
	}
	g.slots = m.Len()
	g.uSlot = make([]int32, uRel.Len())
	parRanges(rowPar, uRel.Len(), func(lo, hi int) {
		pb := make([]Value, len(cj.uPos))
		for i := lo; i < hi; i++ {
			row := uRel.Row(i)
			for j, x := range cj.uPos {
				pb[j] = row[x]
			}
			g.uSlot[i] = m.Find(pb)
		}
	})
	return g
}

// nodeCountVector computes the counting-DP vector of one node (Pichler &
// Skritek, Proposition 4.14): every tuple of the node's relation carries the
// number of extensions to the variables introduced strictly below it; counts
// multiply across children and sum across matching child tuples. The
// groupings must have been built for this node's relation; the vectors of
// all children must already be present in counts. With rowPar > 1 the
// multiply scan splits over row ranges.
func nodeCountVector(p *Plan, u int, rel *Relation, groups []pairGroup, counts [][]int64, rowPar int) []int64 {
	cnt := make([]int64, rel.Len())
	for i := range cnt {
		cnt[i] = 1
	}
	for k, cj := range p.childJoins[u] {
		g := &groups[k]
		sums := make([]int64, g.slots)
		ccnt := counts[cj.child]
		for i, s := range g.cSlot {
			sums[s] += ccnt[i]
		}
		parRanges(rowPar, len(cnt), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if s := g.uSlot[i]; s < 0 {
					cnt[i] = 0
				} else {
					cnt[i] *= sums[s]
				}
			}
		})
	}
	return cnt
}

// countState is the cached counting DP of a BoundQuery: the total at the
// root and what Rebind needs to carry it across a delta. Built from scratch
// it is flat — the per-node vectors over the node relations rels; the first
// Rebind turns those into per-node key sums in persistent maps (keySum,
// countState.update) and from then on maintains only them.
type countState struct {
	total int64

	rels   []*Relation // the node relations counts is parallel to
	counts [][]int64

	keySum []*storage.PMap[int64] // maintained form; nil entry for the root
}

// buildCountState runs the counting DP bottom-up over all nodes. With
// par > 1, the hash-heavy grouping pass fans out over every parent-child
// pair of the tree (pairs are independent regardless of tree shape) and the
// cheap vector walk runs level-parallel across sibling subtrees, splitting
// over row ranges when a level has a single node.
func buildCountState(ctx context.Context, p *Plan, nodeRels []*Relation, par int) (*countState, error) {
	cs := &countState{rels: nodeRels, counts: make([][]int64, p.d.Nodes())}
	groups := make([][]pairGroup, p.d.Nodes())
	for u := range groups {
		if n := len(p.childJoins[u]); n > 0 {
			groups[u] = make([]pairGroup, n)
		}
	}
	rowPar := leftoverPar(par, len(p.countPairs))
	err := parForEach(ctx, par, allNodes(len(p.countPairs)), func(i int) error {
		pr := p.countPairs[i]
		child := p.childJoins[pr.u][pr.k].child
		groups[pr.u][pr.k] = buildPairGroup(p, pr.u, pr.k, nodeRels[pr.u], nodeRels[child], rowPar)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, level := range p.levels {
		rp := leftoverPar(par, len(level))
		err := parForEach(ctx, par, level, func(u int) error {
			cs.counts[u] = nodeCountVector(p, u, nodeRels[u], groups[u], cs.counts, rp)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, c := range cs.counts[p.d.Root()] {
		cs.total += c
	}
	return cs, nil
}

// count computes |q(D)| for a full CQ by dynamic programming over the
// decomposition (Proposition 4.14).
func (r *run) count(ctx context.Context) (int64, error) {
	cs, err := buildCountState(ctx, r.plan, r.nodeRels, r.par)
	if err != nil {
		return 0, err
	}
	return cs.total, nil
}

// reduceBottomUp runs the bottom-up half of the Yannakakis full reduction:
// every node is semijoined with its children, children strictly first. The
// pass runs level-parallel when the run has workers: within a level the
// touched relations are disjoint.
func (r *run) reduceBottomUp(ctx context.Context) error {
	for _, level := range r.plan.levels {
		err := parForEach(ctx, r.par, level, func(u int) error {
			for _, cj := range r.plan.childJoins[u] {
				r.nodeRels[u] = semijoinOn(r.nodeRels[u], r.nodeRels[cj.child], cj.shared, cj.uPos, cj.cPos)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// reduceTopDown runs the top-down half of the full reduction: every child is
// semijoined with its (already reduced) parent, parents strictly first.
// Level-parallel when the run has workers (top-down writes the level's
// children, and every child has one parent).
func (r *run) reduceTopDown(ctx context.Context) error {
	for l := len(r.plan.levels) - 1; l >= 0; l-- {
		err := parForEach(ctx, r.par, r.plan.levels[l], func(u int) error {
			for _, cj := range r.plan.childJoins[u] {
				r.nodeRels[cj.child] = semijoinOn(r.nodeRels[cj.child], r.nodeRels[u], cj.shared, cj.cPos, cj.uPos)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// fullReduce performs the classic Yannakakis full reduction on the node
// relations: a bottom-up semijoin pass followed by a top-down pass. After
// it, every remaining tuple of every node participates in at least one
// solution.
func (r *run) fullReduce(ctx context.Context) error {
	if err := r.reduceBottomUp(ctx); err != nil {
		return err
	}
	return r.reduceTopDown(ctx)
}

// enumNode is the per-node enumeration state: the (fully reduced) relation,
// the index on the columns shared with the parent bag, and the hypergraph
// vertex ids to write each column to.
type enumNode struct {
	rel       *Relation
	idx       *storage.Index // nil for nodes with no parent-shared columns
	sharedVid []int          // vertex ids of the shared columns
	write     []int          // vertex id of every relation column
}

// enumState is the immutable, shareable part of an enumeration over fully
// reduced node relations: the pre-order traversal and the per-node indexes.
// Building it is the per-evaluation cost the bound API caches away; the
// enumerate method allocates its own cursors, so one enumState serves any
// number of concurrent enumerations. It has two forms. Built from scratch it
// is flat: reduced relations with flat indexes (nodes), plus the bottom-up
// pass intermediates (buRels, set by the bound API only). Derived by Rebind
// it is maintained: the same rows grouped in persistent maps (m, see
// maintreduce.go), which the enumeration probes directly.
type enumState struct {
	plan      *Plan
	pre       []int
	maxShared int

	// id names this state among its engine's (0: not a bound query's) and
	// parent the state it was derived from by update, whose recorded deltas
	// (enumMaint.delta) are against exactly that state. A name rather than a
	// pointer, so a chain of snapshots does not keep its whole past alive.
	id, parent uint64

	nodes  []enumNode
	buRels []*Relation

	// up caches, per (node, child-join) pair of plan.countPairs, the index of
	// the *parent* relation on the columns shared with that child — the probe
	// direction of enumerateVia's path walk, which is the reverse of the
	// enumNode indexes above. Flat form only, built lazily under upMu (the
	// maintained form keeps these groupings up to date as enumMaint.up).
	upMu sync.Mutex
	up   []*storage.Index

	m *enumMaint
}

// buildEnumState indexes every non-root node's relation on the columns
// shared with its parent bag; by TD connectedness those are exactly the
// columns constrained by the time the node is visited. rels must carry the
// bag columns of the plan (the invariant of newRun).
func buildEnumState(p *Plan, rels []*Relation) *enumState {
	es := &enumState{plan: p, pre: make([]int, len(p.order)), nodes: make([]enumNode, p.d.Nodes())}
	// Pre-order over the tree: reverse of the (post-order) topological
	// order. Every node appears after all of its ancestors.
	for i, u := range p.order {
		es.pre[len(p.order)-1-i] = u
	}
	for _, u := range es.pre {
		rel := rels[u]
		en := enumNode{rel: rel, write: p.bagVids[u], sharedVid: p.sharedVids[u]}
		if len(p.shared[u]) > 0 {
			en.idx = storage.BuildIndex(rel.Data, len(rel.Cols), p.sharedPos[u])
			if len(p.shared[u]) > es.maxShared {
				es.maxShared = len(p.shared[u])
			}
		}
		es.nodes[u] = en
	}
	return es
}

// rootLen returns the number of rows of the reduced root relation — the
// extent the parallel enumeration splits.
func (es *enumState) rootLen() int {
	root := es.pre[0]
	if es.m != nil {
		return es.m.fLen[root]
	}
	return es.nodes[root].rel.Len()
}

// enumerateRange streams the solutions whose root tuple index lies in
// [rootLo, rootHi), in root-index order. It assumes the relations behind the
// state are fully reduced: then every node tuple participates in a solution
// and the backtracking search below never dead-ends, so the delay between
// consecutive yields is bounded by the tree size. yield receives the
// assignment as values indexed parallel to plan.Vars(); the slice is reused
// between calls. Returning false from yield stops the enumeration early
// (enumerateRange then returns nil). The state is never written, so any
// number of ranges may run concurrently over one enumState.
func (es *enumState) enumerateRange(ctx context.Context, rootLo, rootHi int, yield func(row []Value) bool) error {
	p := es.plan
	if p.d.Nodes() == 0 {
		return nil
	}
	asg := make([]Value, p.h.NV())
	out := make([]Value, len(p.qvars))
	keyBuf := make([]Value, es.maxShared)
	var yielded int
	stop := false
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(es.pre) {
			yielded++
			if yielded&0x3f == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			// Vertex ids follow sorted variable order, so the assignment
			// is already the output row.
			copy(out, asg[:len(out)])
			if !yield(out) {
				stop = true
			}
			return nil
		}
		u := es.pre[i]
		if m := es.m; m != nil {
			// Maintained form: the rows to visit are a contiguous bucket —
			// of the persistent index on the parent-shared columns, or of the
			// listed relation for a node sharing none — except for the whole
			// root, which streams straight off its persistent set.
			write := p.bagVids[u]
			a := len(write)
			var rows []Value
			switch {
			case m.down[u] != nil:
				kb := keyBuf[:len(p.sharedVids[u])]
				for j, vid := range p.sharedVids[u] {
					kb[j] = asg[vid]
				}
				rows, _ = m.down[u].Get(kb)
			case i == 0 && rootLo == 0 && rootHi == m.fLen[u]:
				var err error
				m.all[u].Range(func(row []Value, _ struct{}) bool {
					for j, vid := range write {
						asg[vid] = row[j]
					}
					err = rec(1)
					return err == nil && !stop
				})
				return err
			case i == 0:
				rows = es.flatF(u).Data[rootLo*a : rootHi*a]
			default:
				rows = es.flatF(u).Data
			}
			for off := 0; off+a <= len(rows); off += a {
				if stop {
					return nil
				}
				for j, vid := range write {
					asg[vid] = rows[off+j]
				}
				if err := rec(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		en := es.nodes[u]
		start, n := 0, en.rel.Len()
		var rows []int32
		if en.idx != nil {
			kb := keyBuf[:len(en.sharedVid)]
			for j, vid := range en.sharedVid {
				kb[j] = asg[vid]
			}
			rows = en.idx.Lookup(kb)
			n = len(rows)
		} else if i == 0 {
			// The root has no parent-shared columns, so its scan is the full
			// relation — exactly the loop the range partition bounds.
			start, n = rootLo, rootHi
		}
		for ri := start; ri < n; ri++ {
			if stop {
				return nil
			}
			rowIdx := ri
			if rows != nil {
				rowIdx = int(rows[ri])
			}
			row := en.rel.Row(rowIdx)
			for j, vid := range en.write {
				asg[vid] = row[j]
			}
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// enumerate streams every solution of the full CQ without materialising the
// join. With par ≤ 1 (or a root too small to split) it is the classic
// sequential bounded-delay enumeration. With par > 1 the root relation is
// over-split into ~enumChunkFactor×par contiguous chunks that par
// bounded-delay producers claim dynamically (work-stealing) and walk down
// the decomposition, and the streams merge back into the single yield: in
// arrival order by default, or in root-index order — i.e. exactly the
// sequential order — when ordered is set (WithDeterministicOrder).
func (es *enumState) enumerate(ctx context.Context, par int, ordered bool, yield func(row []Value) bool) error {
	if es.plan.d.Nodes() == 0 {
		return nil
	}
	rootN := es.rootLen()
	if par <= 1 || rootN < 2 {
		return es.enumerateRange(ctx, 0, rootN, yield)
	}
	return es.enumerateParallel(ctx, par, ordered, rootN, yield)
}

// enumBatch is one producer→merger handoff of the parallel enumeration: a
// flat block of up to enumBatchRows output rows. rows is explicit because
// solutions may be zero-width.
type enumBatch struct {
	rows int
	data []Value
}

// enumBatchRows is the producer batch size: small enough to keep the delay
// between yields bounded, large enough to amortise the channel handoff.
const enumBatchRows = 64

// enumChunkFactor is the over-splitting of the parallel enumeration: the
// root relation is cut into up to enumChunkFactor×par chunks that the par
// workers claim dynamically, so one skewed contiguous range (a root tuple
// with a huge subtree fan-out) occupies a single worker for one chunk
// instead of serialising a par-th of the whole scan behind it.
const enumChunkFactor = 4

// enumerateParallel fans the root scan out over par workers that dynamically
// claim ~enumChunkFactor×par root chunks (work-stealing: a worker stuck on a
// skewed chunk no longer blocks the ranges behind it) and merges their
// batches into the caller's yield. All channels are bounded, an early stop
// (yield returning false) or a context cancellation tears the pool down, and
// the function returns only after every producer goroutine has exited —
// nothing leaks, whichever way the enumeration ends.
func (es *enumState) enumerateParallel(ctx context.Context, par int, ordered bool, rootN int, yield func(row []Value) bool) error {
	if par > rootN {
		par = rootN
	}
	chunks := enumChunkFactor * par
	if chunks > rootN {
		chunks = rootN
	}
	width := len(es.plan.qvars)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	// produce streams one chunk into send, batching rows. send reports false
	// when the pool is being torn down.
	produce := func(lo, hi int, send func(enumBatch) bool) {
		b := enumBatch{data: make([]Value, 0, enumBatchRows*width)}
		flush := func() bool {
			if b.rows == 0 {
				return true
			}
			if !send(b) {
				return false
			}
			b = enumBatch{data: make([]Value, 0, enumBatchRows*width)}
			return true
		}
		err := es.enumerateRange(wctx, lo, hi, func(row []Value) bool {
			b.data = append(b.data, row...)
			b.rows++
			if b.rows >= enumBatchRows {
				return flush()
			}
			return true
		})
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			cancel()
			return
		}
		flush()
	}
	// drain hands one received batch to yield; it reports whether the merge
	// should continue.
	stopped := false
	drain := func(b enumBatch) bool {
		for r := 0; r < b.rows; r++ {
			if !yield(b.data[r*width : r*width+width]) {
				stopped = true
				cancel()
				return false
			}
		}
		if err := ctx.Err(); err != nil {
			cancel()
			return false
		}
		return true
	}

	// Chunks are claimed in index order off one shared counter; a worker
	// finishing a cheap chunk immediately steals the next unclaimed one.
	var nextChunk atomic.Int64
	claim := func() int {
		return int(nextChunk.Add(1) - 1)
	}

	if ordered {
		// One bounded channel per chunk, closed exactly once by the worker
		// that claimed it (or, for chunks never claimed because the pool was
		// torn down first, by the sweeper after every worker exited); the
		// merger consumes the chunks in index order, which reproduces the
		// sequential order exactly. Workers ahead of the merger fill their
		// chunk buffers and block until its turn; cancellation unblocks them.
		chans := make([]chan enumBatch, chunks)
		for c := range chans {
			chans[c] = make(chan enumBatch, 4)
		}
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					c := claim()
					if c >= chunks {
						return
					}
					produce(c*rootN/chunks, (c+1)*rootN/chunks, func(b enumBatch) bool {
						select {
						case chans[c] <- b:
							return true
						case <-wctx.Done():
							return false
						}
					})
					close(chans[c])
					if wctx.Err() != nil {
						return
					}
				}
			}()
		}
		go func() {
			// Sweeper: chunks no worker ever claimed (possible only after a
			// cancellation emptied the pool early) still need their channels
			// closed so the merger's drain below terminates. Claims hand out
			// indexes in order, so after the last worker exits the unclaimed
			// chunks are exactly [min(counter, chunks), chunks).
			wg.Wait()
			first := int(nextChunk.Load())
			if first > chunks {
				first = chunks
			}
			for c := first; c < chunks; c++ {
				close(chans[c])
			}
		}()
		merging := true
		for c := 0; c < chunks; c++ {
			for b := range chans[c] {
				if merging && !drain(b) {
					merging = false
				}
			}
		}
		cancel()
		wg.Wait()
	} else {
		// One shared bounded channel: batches merge in arrival order. The
		// channel closes once every producer has exited, so the merge loop
		// below always terminates and doubles as the teardown drain.
		ch := make(chan enumBatch, par*2)
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for wctx.Err() == nil {
					c := claim()
					if c >= chunks {
						return
					}
					produce(c*rootN/chunks, (c+1)*rootN/chunks, func(b enumBatch) bool {
						select {
						case ch <- b:
							return true
						case <-wctx.Done():
							return false
						}
					})
				}
			}()
		}
		go func() {
			wg.Wait()
			close(ch)
		}()
		merging := true
		for b := range ch {
			if merging && !drain(b) {
				merging = false
			}
		}
		wg.Wait()
	}

	if stopped {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}

// enumerate builds the enumeration state over this run's node relations and
// streams the solutions (see enumState.enumerate). The bound API builds the
// state once instead and reuses it across calls.
func (r *run) enumerate(ctx context.Context, ordered bool, yield func(row []Value) bool) error {
	if r.plan.d.Nodes() == 0 {
		return nil
	}
	return buildEnumState(r.plan, r.nodeRels).enumerate(ctx, r.par, ordered, yield)
}
