package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// CompiledDB is a database compiled once by Engine.CompileDB: constants
// interned through one dictionary, relations laid out flat with lazily built
// integer-keyed indexes. A CompiledDB is read-only after compilation and
// safe to share between any number of concurrent Binds and evaluations.
// Apply evolves it into a new snapshot without recompiling: the two
// snapshots share every untouched table and the (append-friendly)
// dictionary.
type CompiledDB struct {
	sdb *storage.DB
	eng *Engine // whose Stats count the rows Apply touches
}

// CompileDB interns db once into a reusable compiled form. Pair it with
// PreparedQuery.Bind to also fix the data-dependent evaluation state:
// Prepare × CompileDB × Bind is the full compile-once / evaluate-many
// discipline for repeated traffic over a mostly-stable database.
func (e *Engine) CompileDB(ctx context.Context, db cq.Database) (*CompiledDB, error) {
	e.dbCompiles.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sdb, err := storage.Compile(db)
	if err != nil {
		return nil, err
	}
	return &CompiledDB{sdb: sdb, eng: e}, nil
}

// Apply produces a new database snapshot with the delta applied —
// copy-on-write down to the rows, so a small delta costs time proportional
// to the delta (see storage.DB.Apply). Both snapshots stay live: the receiver
// is unchanged and existing BoundQuerys over it keep answering consistently.
// Pair with BoundQuery.Rebind (or use BoundQuery.Update, which does both) to
// carry bound evaluation state forward incrementally.
func (c *CompiledDB) Apply(ctx context.Context, delta *storage.Delta) (*CompiledDB, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sdb, err := c.sdb.Apply(delta)
	if err != nil {
		return nil, err
	}
	c.eng.applyRows.Add(sdb.ApplyRows())
	return &CompiledDB{sdb: sdb, eng: c.eng}, nil
}

// Restrict returns the snapshot cut down to the named relations, sharing
// their tables and the dictionary. A BoundQuery keeps the CompiledDB it was
// bound to alive; one bound to a snapshot restricted to the relations it
// reads rebinds exactly as it would against the whole snapshot, without
// holding on to every other relation's rows as of that moment — which is
// what a long-lived registry of queries over a changing database wants.
func (c *CompiledDB) Restrict(relations []string) *CompiledDB {
	return &CompiledDB{sdb: c.sdb.Restrict(relations), eng: c.eng}
}

// Stats summarises the compiled database (relations, tuples, interned
// constants).
func (c *CompiledDB) Stats() storage.DBStats { return c.sdb.Stats() }

// RelationArity returns the arity of the named relation, or ok=false when
// the relation is absent (equivalently: empty) in this snapshot. Ingestion
// layers use it to reject arity-mismatched tuples before they reach Apply.
func (c *CompiledDB) RelationArity(name string) (int, bool) {
	t := c.sdb.Table(name)
	if t == nil {
		return 0, false
	}
	return t.Arity, true
}

// RelationRows returns the named relation's tuple count (0 when absent).
func (c *CompiledDB) RelationRows(name string) int {
	t := c.sdb.Table(name)
	if t == nil {
		return 0
	}
	return t.Rows()
}

// BoundQuery is a prepared query bound to a compiled database: the interned
// dictionary, the per-atom relations, and the materialised decomposition
// node relations are all built once at bind time and reused by every
// evaluation call. The node relations come in one of two forms: bottom-up
// reduced (Bind, for evaluating a snapshot) or cover-based (BindMaintained,
// for maintaining one under Rebind); a query records which it holds. The
// full Yannakakis reduction (with its enumeration indexes) and the counting
// DP vectors are built lazily on the first Enumerate/Count and then shared.
// A BoundQuery is immutable after binding and safe for concurrent use;
// Update/Rebind never mutate it — they return a new BoundQuery sharing all
// state the delta did not touch.
type BoundQuery struct {
	prep *PreparedQuery
	cdb  *CompiledDB

	// inst and nodeRels are the flat atom and node relations the bind builds
	// (nodeRels is nil for naive and ground plans). Once the query is being
	// maintained (maint below), an entry is valid only while its relation has
	// not changed since it was flat: Rebind clears the entries a delta
	// reaches — inst.AtomRels[i], nodeRels[u] — instead of rewriting them,
	// and flatNodes lists a cleared node from the maintained state on demand.
	// reduced records that nodeRels are bottom-up reduced (Bind) rather than
	// cover-based; only a query that was never maintained holds that form.
	inst     *Instance
	nodeRels []*Relation
	reduced  bool

	// maint is the maintained (persistent-map) form of the same relations,
	// nil until the first Rebind that changes something the query reads: a
	// bind-and-evaluate workload that never updates builds none of it.
	maint  *maintState
	flatMu sync.Mutex                  // serialises flatNodes' listing
	flat   atomic.Pointer[[]*Relation] // flatNodes' result, once some entry of nodeRels was nil

	reduceMu sync.Mutex // serialises enumSt construction
	enumSt   atomic.Pointer[enumState]
	countMu  sync.Mutex // serialises countSt construction
	countSt  atomic.Pointer[countState]
}

// Bind fixes the data-dependent half of the evaluation for a snapshot that is
// evaluated rather than maintained: it builds the per-atom relations over the
// compiled database and materialises the decomposition bottom-up, children
// first — each node the connected join of its cover relations, its
// children's relations on the shared columns and its filter atoms, projected
// to the bag. The nodes are thus bottom-up reduced from the start: a cover
// whose relations share no variable is never built as a cross product on its
// own, Bool reads the root, and Enumerate's reduction only runs top-down.
// Rebind works on the result too, but its first call rebuilds the cover-based
// bags maintenance needs; a query that will be rebound should use
// BindMaintained.
func (p *PreparedQuery) Bind(ctx context.Context, cdb *CompiledDB) (*BoundQuery, error) {
	return p.bind(ctx, cdb, true)
}

// BindMaintained is Bind for a query that will be carried across deltas with
// Rebind or Update: every node relation is its cover-based bag — the λ-edge
// join (smallest first, connected) projected to the bag and filtered by the
// assigned atoms, unreduced — which is what the first Rebind loads as the
// node's maintained support. The answers are Bind's.
func (p *PreparedQuery) BindMaintained(ctx context.Context, cdb *CompiledDB) (*BoundQuery, error) {
	return p.bind(ctx, cdb, false)
}

// bind is Bind (reduced) or BindMaintained.
func (p *PreparedQuery) bind(ctx context.Context, cdb *CompiledDB, reduced bool) (*BoundQuery, error) {
	p.eng.binds.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	inst, err := BindCompile(p.plan.query, cdb.sdb)
	if err != nil {
		return nil, err
	}
	b := &BoundQuery{prep: p, cdb: cdb, inst: inst}
	if p.plan.Naive() || p.plan.d.Nodes() == 0 {
		return b, nil
	}
	if !reduced {
		b.nodeRels, err = coverNodes(ctx, p.plan, inst, p.eng.par())
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	r, err := newRun(ctx, p.plan, inst, p.eng.par())
	if err != nil {
		return nil, err
	}
	b.nodeRels, b.reduced = r.nodeRels, true
	return b, nil
}

// Query returns the bound query.
func (b *BoundQuery) Query() cq.Query { return b.prep.Query() }

// Database returns the compiled database snapshot the query is bound to.
func (b *BoundQuery) Database() *CompiledDB { return b.cdb }

// ExplainDB renders the plan together with the node relation sizes already
// materialised — unlike PreparedQuery.ExplainDB it does no work beyond
// formatting. After Bind the sizes are bottom-up reduced; after
// BindMaintained or a Rebind they are the cover-based bags'.
func (b *BoundQuery) ExplainDB() string {
	plan := b.prep.plan
	if plan.Naive() || plan.d.Nodes() == 0 {
		return plan.Explain()
	}
	var sb strings.Builder
	sb.WriteString(plan.Explain())
	for u, rel := range b.nodeRels {
		n := 0
		if rel != nil {
			n = rel.Len()
		} else { // changed since it was flat: the maintained state knows
			n = b.maint.nodes[u].sup.Len()
		}
		fmt.Fprintf(&sb, "node %d materialised: |rel|=%d\n", u, n)
	}
	return sb.String()
}

// Vars returns the query's variables in enumeration output order (sorted).
func (b *BoundQuery) Vars() []string { return b.prep.Vars() }

// Dict returns the interned dictionary of the bound database lineage — the
// value space of the relations DiffFrom returns.
func (b *BoundQuery) Dict() *Dict { return b.inst.Dict }

// flatNodes returns every node relation as a flat Relation — what the
// from-scratch passes (Bool's semijoin pass, the first full reduction, the
// first counting DP) scan. A freshly bound query has them from Bind; a
// maintained one lists the nodes that changed since off their persistent
// maps, once, on first request.
func (b *BoundQuery) flatNodes() []*Relation {
	if b.maint == nil {
		return b.nodeRels
	}
	if rels := b.flat.Load(); rels != nil {
		return *rels
	}
	b.flatMu.Lock()
	defer b.flatMu.Unlock()
	if rels := b.flat.Load(); rels != nil {
		return *rels
	}
	rels := append([]*Relation(nil), b.nodeRels...)
	for u, rel := range rels {
		if rel == nil {
			rels[u] = flatten(b.maint.nodes[u].sup, b.prep.plan.bagVars[u])
		}
	}
	b.flat.Store(&rels)
	return rels
}

// run clones the per-evaluation view of the bound node relations: the slice
// is copied so semijoin passes can reassign slots, while the relations
// themselves are shared read-only.
func (b *BoundQuery) run() *run {
	return &run{
		plan:     b.prep.plan,
		inst:     b.inst,
		nodeRels: append([]*Relation(nil), b.flatNodes()...),
		par:      b.prep.eng.par(),
		reduced:  b.reduced,
	}
}

// Bool decides q(D) ≠ ∅ over the bound database (Proposition 2.2). After
// Bind the answer is whether the bottom-up reduced root is non-empty;
// otherwise the bottom-up semijoin pass runs per call. When a full reduction
// is already cached (a prior Enumerate, or carried forward by Update), the
// answer is read off the reduced root relation without any pass at all.
func (b *BoundQuery) Bool(ctx context.Context) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if b.prep.plan.Naive() {
		return naiveBool(ctx, b.inst)
	}
	if b.prep.plan.d.Nodes() == 0 {
		return groundSat(b.inst), nil
	}
	if es := b.enumSt.Load(); es != nil {
		return es.rootLen() > 0, nil
	}
	return b.run().bool_(ctx)
}

// Count computes |q(D)| for a full CQ over the bound database
// (Proposition 4.14). The per-node DP vectors are computed once and cached;
// repeated Counts read the cached total, and Update maintains the vectors
// incrementally on the affected subtrees only.
func (b *BoundQuery) Count(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if b.prep.plan.Naive() {
		return naiveCount(ctx, b.inst)
	}
	if b.prep.plan.d.Nodes() == 0 {
		if groundSat(b.inst) {
			return 1, nil
		}
		return 0, nil
	}
	cs, err := b.ensureCounts(ctx)
	if err != nil {
		return 0, err
	}
	return cs.total, nil
}

// ensureCounts runs the counting DP once over the bound node relations and
// caches the per-node vectors (so Update can maintain them incrementally).
// Concurrent callers wait for the single construction; a failed attempt
// (typically: a cancelled context) is not cached, so the next caller
// retries.
func (b *BoundQuery) ensureCounts(ctx context.Context) (*countState, error) {
	if cs := b.countSt.Load(); cs != nil {
		return cs, nil
	}
	b.countMu.Lock()
	defer b.countMu.Unlock()
	if cs := b.countSt.Load(); cs != nil {
		return cs, nil
	}
	cs, err := buildCountState(ctx, b.prep.plan, b.flatNodes(), b.prep.eng.par())
	if err != nil {
		return nil, err
	}
	b.countSt.Store(cs)
	return cs, nil
}

// ensureReduced runs the Yannakakis full reduction once — only its top-down
// half after Bind, whose nodes are bottom-up reduced already — and builds the
// shared enumeration indexes over the reduced relations. The bottom-up
// intermediate relations are kept alongside so Update can re-run the
// semijoin passes only where a delta actually propagates. Concurrent callers
// wait for the single construction; a failed attempt (typically: a
// cancelled context) is not cached, so the next caller retries.
func (b *BoundQuery) ensureReduced(ctx context.Context) (*enumState, error) {
	if es := b.enumSt.Load(); es != nil {
		return es, nil
	}
	b.reduceMu.Lock()
	defer b.reduceMu.Unlock()
	if es := b.enumSt.Load(); es != nil {
		return es, nil
	}
	r := b.run()
	if err := r.reduceBottomUp(ctx); err != nil {
		return nil, err
	}
	bu := append([]*Relation(nil), r.nodeRels...)
	if err := r.reduceTopDown(ctx); err != nil {
		return nil, err
	}
	es := buildEnumState(b.prep.plan, r.nodeRels)
	es.buRels = bu
	es.id = b.prep.eng.stateSeq.Add(1)
	b.enumSt.Store(es)
	return es, nil
}

// Enumerate streams every solution of the full CQ over the bound database.
// The first call pays for the full reduction and the per-node enumeration
// indexes; later calls — including concurrent ones — reuse them and stream
// with bounded delay. See PreparedQuery.Enumerate for the yield contract.
func (b *BoundQuery) Enumerate(ctx context.Context, yield func(Solution) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p := b.prep.plan
	sol := Solution{vars: p.qvars, dict: b.inst.Dict}
	if p.Naive() {
		return naiveEnumerate(ctx, b.inst, p.qvars, func(row []Value) bool {
			sol.row = row
			return yield(sol)
		})
	}
	if p.d.Nodes() == 0 {
		if groundSat(b.inst) {
			sol.row = nil
			yield(sol)
		}
		return nil
	}
	es, err := b.ensureReduced(ctx)
	if err != nil {
		return err
	}
	return es.enumerate(ctx, b.prep.eng.par(), b.prep.eng.ordered(), func(row []Value) bool {
		sol.row = row
		return yield(sol)
	})
}

// EnumerateAll materialises every solution as a sorted relation (a
// convenience over Enumerate for tests and small result sets).
func (b *BoundQuery) EnumerateAll(ctx context.Context) (*Relation, *Dict, error) {
	out := NewRelation(b.prep.plan.qvars...)
	err := b.Enumerate(ctx, func(s Solution) bool {
		if len(s.row) == 0 {
			out.AddEmpty()
		} else {
			// Add copies into the backing array immediately, so the reused
			// yield slice can be passed straight through.
			out.Add(s.row...)
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	out.sortPar(b.prep.eng.par())
	return out, b.inst.Dict, nil
}

// CountProjection counts the distinct projections of the solutions onto the
// free variables (§4.4) over the bound database.
func (b *BoundQuery) CountProjection(ctx context.Context, free []string) (int64, error) {
	return countProjection(b.prep.plan.qvars, free, func(yield func(Solution) bool) error {
		return b.Enumerate(ctx, yield)
	})
}

// materialise streams every solution into an (unsorted) relation over the
// query's variables — EnumerateAll without the display sort.
func (b *BoundQuery) materialise(ctx context.Context) (*Relation, error) {
	out := NewRelation(b.prep.plan.qvars...)
	err := b.Enumerate(ctx, func(s Solution) bool {
		if len(s.row) == 0 {
			out.AddEmpty()
		} else {
			out.Add(s.row...)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DiffFrom computes the tuple-level change of the query's result between a
// previous bound snapshot and this one: added holds the solutions present
// now but absent then, removed the converse, both sorted, over Vars()
// columns (in the shared dictionary's value space). The receiver and prev
// must be binds of the same PreparedQuery descending from one CompileDB
// lineage — interned values are not comparable across dictionaries, so
// anything else is an error. When the delta never reached the query, or was
// absorbed before the reduced relations, the diff is empty without
// enumerating anything. Otherwise the diff is enumerated straight from the
// per-node changes of the two cached enumeration states in O(per-node change
// + |result diff| × tree) — see diff.go — never materialising either result.
// When prev is the snapshot b was derived from by Rebind or Update, the
// per-node changes are the deltas that Rebind recorded, so the whole call is
// O(change); against any other snapshot of the lineage they are recomputed by
// diffing the reduced relations. Only plans without cached enumeration state
// (naive plans, ground queries) fall back to materialising both sides and
// diffing them as sets. This is the hook a live view-maintenance layer turns
// into change notifications. The returned relations are read-only.
func (b *BoundQuery) DiffFrom(ctx context.Context, prev *BoundQuery) (added, removed *Relation, err error) {
	if prev == nil {
		return nil, nil, fmt.Errorf("engine: DiffFrom against a nil snapshot")
	}
	if b.prep != prev.prep {
		return nil, nil, fmt.Errorf("engine: DiffFrom across different prepared queries")
	}
	if b.inst.Dict != prev.inst.Dict {
		return nil, nil, fmt.Errorf("engine: DiffFrom across unrelated database lineages")
	}
	// One shared, never-written empty relation per plan: an invisible or
	// absorbed delta allocates nothing here.
	empty := func() (*Relation, *Relation, error) {
		return b.prep.plan.noRows, b.prep.plan.noRows, nil
	}
	if b == prev || b.inst == prev.inst {
		return empty() // shared instance: the delta was invisible to the query
	}
	if p := b.prep.plan; !p.Naive() && p.d.Nodes() > 0 && len(p.qvars) > 0 {
		bes, err := b.ensureReduced(ctx)
		if err != nil {
			return nil, nil, err
		}
		pes, err := prev.ensureReduced(ctx)
		if err != nil {
			return nil, nil, err
		}
		mc := &maintCtx{}
		defer func() { b.prep.eng.maintRows.Add(mc.rows) }()
		diffs := nodeDiffs(pes, bes, mc)
		if len(diffs) == 0 {
			return empty() // every reduced relation absorbed: identical results
		}
		b.prep.eng.diffsFast.Add(1)
		return b.diffIncremental(ctx, pes, bes, diffs, mc)
	}
	b.prep.eng.diffsOracle.Add(1)
	return b.diffOracle(ctx, prev)
}
