package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"d2cq/internal/cq"
	"d2cq/internal/decomp"
	"d2cq/internal/hypergraph"
	"d2cq/internal/storage"
)

// Engine owns the policy and the shared caches of query compilation: how
// hard to search for a decomposition, how many decompositions to keep, and
// what to do when no bounded-width decomposition exists. One Engine is meant
// to be shared process-wide and used concurrently from many goroutines; the
// expensive, data-independent compilation (parse → hypergraph → GHD → node
// plan) happens once per query shape in Prepare, and the resulting
// PreparedQuery evaluates any number of databases.
type Engine struct {
	cache         *decomp.Cache
	maxWidth      int
	naiveFallback bool
	parallelism   int
	orderedEnum   bool

	// Singleflight for the decomposition search: concurrent first-time
	// prepares of the same shape wait for one computation instead of each
	// running it.
	flightMu sync.Mutex
	inflight map[string]*flight

	prepares       atomic.Uint64
	decompComputed atomic.Uint64
	dbCompiles     atomic.Uint64
	binds          atomic.Uint64
	rebinds        atomic.Uint64

	// Chosen-path counters of the incremental maintenance cost model (see
	// cost.go): which side each measured-stats decision actually took, so
	// operators can see whether traffic is being maintained incrementally
	// or falling back to rebuilds.
	atomDeltaFast  atomic.Uint64 // dirty atoms whose delta was read off the two tables' row maps
	atomDeltaScan  atomic.Uint64 // dirty atoms rebuilt by a table scan
	nodeDeltaJoins atomic.Uint64 // nodes maintained by delta-join
	nodeRebuilds   atomic.Uint64 // nodes re-materialised from scratch
	diffsFast      atomic.Uint64 // DiffFroms answered by propagated per-node diffs
	diffsOracle    atomic.Uint64 // DiffFroms that materialised both results
	maintRows      atomic.Uint64 // rows hashed, probed or copied by Rebind and DiffFrom
	applyRows      atomic.Uint64 // the same, by CompiledDB.Apply

	// stateSeq names cached reductions (enumState.id), so a state derived by
	// Rebind can say which state its recorded deltas are against without
	// holding a pointer to it.
	stateSeq atomic.Uint64
}

type flight struct {
	done chan struct{}
	d    *decomp.GHD
	err  error
}

// Option configures an Engine.
type Option func(*Engine)

// WithMaxWidth rejects (or, under WithNaiveFallback, degrades) queries whose
// decomposition width exceeds w. Zero means no bound.
func WithMaxWidth(w int) Option {
	return func(e *Engine) { e.maxWidth = w }
}

// WithDecompCache bounds the decomposition cache to capacity entries
// (default 256). Zero disables caching.
func WithDecompCache(capacity int) Option {
	return func(e *Engine) { e.cache = decomp.NewCache(capacity) }
}

// WithNaiveFallback makes Prepare degrade to a naive backtracking plan —
// instead of failing — when no decomposition can be found or the width
// bound of WithMaxWidth is exceeded.
func WithNaiveFallback() Option {
	return func(e *Engine) { e.naiveFallback = true }
}

// WithParallelism runs the data-dependent evaluation passes on a bounded
// pool of n workers: node materialisation, the semijoin passes over
// independent decomposition subtrees, the counting DP (grouping fans out
// over parent-child pairs, vectors over sibling subtrees and row ranges),
// solution enumeration (the root relation is over-split into ~4n chunks the
// n bounded-delay producers claim dynamically, so skewed ranges don't
// serialise a worker), the one-off conversion of a bound query's nodes to
// maintained form at its first Rebind, and the sort of DiffFrom's added and
// removed rows. A Rebind's maintenance of dirty atoms and nodes is
// sequential. Values of 1 or less evaluate sequentially (the default); n < 0
// uses one worker per CPU.
func WithParallelism(n int) Option {
	if n < 0 {
		n = runtime.NumCPU()
	}
	return func(e *Engine) { e.parallelism = n }
}

// WithDeterministicOrder makes parallel enumeration merge its chunk streams
// in root-index order, reproducing exactly the order the sequential
// enumeration yields. Without it, parallel streams merge in arrival order
// (the solution multiset is identical either way); sequential evaluation is
// unaffected.
func WithDeterministicOrder() Option {
	return func(e *Engine) { e.orderedEnum = true }
}

// par returns the engine's worker bound for evaluation passes.
func (e *Engine) par() int {
	if e == nil {
		return 1
	}
	return e.parallelism
}

// ordered reports whether parallel enumeration must preserve the sequential
// yield order.
func (e *Engine) ordered() bool {
	if e == nil {
		return false
	}
	return e.orderedEnum
}

// DefaultCacheCapacity is the decomposition-cache bound of NewEngine unless
// overridden by WithDecompCache.
const DefaultCacheCapacity = 256

// NewEngine returns an engine with a bounded decomposition cache.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		cache:    decomp.NewCache(DefaultCacheCapacity),
		inflight: make(map[string]*flight),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Stats is a snapshot of engine traffic: how many queries were prepared,
// how many decompositions were actually computed (cache misses do the work;
// hits reuse it), how many databases were compiled and bound, and the cache
// counters.
type Stats struct {
	Prepares        uint64
	DecompsComputed uint64
	DBCompiles      uint64
	Binds           uint64
	Rebinds         uint64
	Cache           decomp.CacheStats

	// Chosen-path counters of incremental maintenance: for each decision the
	// measured-stats cost model makes (cost.go), how often each side ran.
	AtomDeltaFast  uint64 // dirty atoms whose delta was read off the two tables' row maps
	AtomDeltaScan  uint64 // dirty atoms rebuilt by a table scan
	NodeDeltaJoins uint64 // nodes maintained by delta-join
	NodeRebuilds   uint64 // nodes re-materialised from scratch
	DiffsFast      uint64 // DiffFroms answered by propagated per-node diffs
	DiffsOracle    uint64 // DiffFroms that materialised both results

	// MaintRowsTouched adds up the rows Rebind and DiffFrom hashed, probed or
	// copied — the work measure of incremental maintenance. For a fixed
	// delta it must not grow with the relations (a test holds it to that).
	MaintRowsTouched uint64

	// ApplyRowsTouched adds up the same for CompiledDB.Apply on this engine's
	// snapshots (storage.DB.ApplyRows). For a fixed small delta it must grow
	// neither with the relation nor with the number of relations.
	ApplyRowsTouched uint64
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Prepares:        e.prepares.Load(),
		DecompsComputed: e.decompComputed.Load(),
		DBCompiles:      e.dbCompiles.Load(),
		Binds:           e.binds.Load(),
		Rebinds:         e.rebinds.Load(),
		Cache:           e.cache.Stats(),
		AtomDeltaFast:   e.atomDeltaFast.Load(),
		AtomDeltaScan:   e.atomDeltaScan.Load(),
		NodeDeltaJoins:  e.nodeDeltaJoins.Load(),
		NodeRebuilds:    e.nodeRebuilds.Load(),
		DiffsFast:       e.diffsFast.Load(),
		DiffsOracle:     e.diffsOracle.Load(),

		MaintRowsTouched: e.maintRows.Load(),
		ApplyRowsTouched: e.applyRows.Load(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("prepares=%d decomps-computed=%d db-compiles=%d binds=%d rebinds=%d cache(hits=%d misses=%d evictions=%d len=%d/%d) paths(atom-delta=%d/%d node-delta=%d/%d diff-fast=%d/%d) maint-rows-touched=%d apply-rows-touched=%d",
		s.Prepares, s.DecompsComputed, s.DBCompiles, s.Binds, s.Rebinds, s.Cache.Hits, s.Cache.Misses,
		s.Cache.Evictions, s.Cache.Len, s.Cache.Capacity,
		s.AtomDeltaFast, s.AtomDeltaFast+s.AtomDeltaScan,
		s.NodeDeltaJoins, s.NodeDeltaJoins+s.NodeRebuilds,
		s.DiffsFast, s.DiffsFast+s.DiffsOracle, s.MaintRowsTouched, s.ApplyRowsTouched)
}

// ErrWidthExceeded is returned (wrapped) by Prepare when the decomposition
// width exceeds the WithMaxWidth bound and no naive fallback is configured.
var ErrWidthExceeded = fmt.Errorf("engine: decomposition width exceeds bound")

// Prepare compiles q into a reusable evaluation plan: it builds the query
// hypergraph, finds (or fetches from the cache) a decomposition, and fixes
// the node plan. The returned PreparedQuery is immutable and safe for
// concurrent use; each evaluation call binds a database.
func (e *Engine) Prepare(ctx context.Context, q cq.Query) (*PreparedQuery, error) {
	e.prepares.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(q.Atoms) == 0 {
		p, err := NewPlan(q, &decomp.GHD{})
		if err != nil {
			return nil, err
		}
		return &PreparedQuery{eng: e, plan: p}, nil
	}
	h := q.Hypergraph()
	key := decomp.CacheKey(h)
	d, err := e.decompFor(h, key)
	if err != nil {
		if e.naiveFallback {
			p, perr := NewPlan(q, nil)
			if perr != nil {
				return nil, perr
			}
			return &PreparedQuery{eng: e, plan: p}, nil
		}
		return nil, err
	}
	if e.maxWidth > 0 && d.Width() > e.maxWidth {
		if e.naiveFallback {
			p, err := NewPlan(q, nil)
			if err != nil {
				return nil, err
			}
			return &PreparedQuery{eng: e, plan: p}, nil
		}
		return nil, fmt.Errorf("%w: width %d > %d for %s", ErrWidthExceeded, d.Width(), e.maxWidth, q)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := NewPlan(q, d)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{eng: e, plan: p}, nil
}

// decompFor returns the decomposition for the keyed hypergraph, consulting
// the cache and collapsing concurrent misses for the same key into a single
// computation.
func (e *Engine) decompFor(h *hypergraph.Hypergraph, key string) (*decomp.GHD, error) {
	if d, ok := e.cache.Get(key); ok {
		return d, nil
	}
	e.flightMu.Lock()
	if f, ok := e.inflight[key]; ok {
		e.flightMu.Unlock()
		<-f.done
		return f.d, f.err
	}
	f := &flight{done: make(chan struct{})}
	e.inflight[key] = f
	e.flightMu.Unlock()

	f.d, f.err = e.computeDecomp(h)
	if f.err == nil {
		e.cache.Put(key, f.d)
	}
	e.flightMu.Lock()
	delete(e.inflight, key)
	e.flightMu.Unlock()
	close(f.done)
	return f.d, f.err
}

func (e *Engine) computeDecomp(h *hypergraph.Hypergraph) (*decomp.GHD, error) {
	e.decompComputed.Add(1)
	return decomp.EvalDecomposition(h)
}

// PreparedQuery is a compiled query: the product of Engine.Prepare. It holds
// only immutable plan state, so a single PreparedQuery may evaluate many
// databases from many goroutines concurrently. Every evaluation method
// honours context cancellation.
type PreparedQuery struct {
	eng  *Engine
	plan *Plan
}

// Query returns the compiled query.
func (p *PreparedQuery) Query() cq.Query { return p.plan.Query() }

// Vars returns the query's variables in the enumeration output order
// (sorted).
func (p *PreparedQuery) Vars() []string { return p.plan.Vars() }

// Plan returns the immutable compiled plan.
func (p *PreparedQuery) Plan() *Plan { return p.plan }

// Explain renders the data-independent evaluation plan.
func (p *PreparedQuery) Explain() string { return p.plan.Explain() }

// Bool decides q(db) ≠ ∅ (Proposition 2.2: polynomial for bounded ghw).
func (p *PreparedQuery) Bool(ctx context.Context, db cq.Database) (bool, error) {
	inst, err := Compile(p.plan.query, db)
	if err != nil {
		return false, err
	}
	if p.plan.Naive() {
		return naiveBool(ctx, inst)
	}
	if p.plan.d.Nodes() == 0 {
		return groundSat(inst), nil
	}
	r, err := newRun(ctx, p.plan, inst, p.eng.par())
	if err != nil {
		return false, err
	}
	return r.bool_(ctx)
}

// Count computes |q(db)| for a full CQ (Proposition 4.14: polynomial for
// bounded ghw).
func (p *PreparedQuery) Count(ctx context.Context, db cq.Database) (int64, error) {
	inst, err := Compile(p.plan.query, db)
	if err != nil {
		return 0, err
	}
	if p.plan.Naive() {
		return naiveCount(ctx, inst)
	}
	if p.plan.d.Nodes() == 0 {
		if groundSat(inst) {
			return 1, nil
		}
		return 0, nil
	}
	r, err := newRun(ctx, p.plan, inst, p.eng.par())
	if err != nil {
		return 0, err
	}
	return r.count(ctx)
}

// Solution is one answer handed to an Enumerate callback. The underlying
// value slice is reused between yields: copy (or call Strings) before
// retaining it.
type Solution struct {
	vars []string
	row  []Value
	dict *Dict
}

// Vars returns the solution's variables (sorted; shared across yields).
func (s Solution) Vars() []string { return s.vars }

// Values returns the interned values parallel to Vars. The slice is reused
// between yields.
func (s Solution) Values() []Value { return s.row }

// Get returns the constant bound to the named variable ("" if absent).
func (s Solution) Get(name string) string {
	for i, v := range s.vars {
		if v == name {
			return s.dict.Name(s.row[i])
		}
	}
	return ""
}

// Strings returns the solution as freshly allocated constant names parallel
// to Vars.
func (s Solution) Strings() []string {
	out := make([]string, len(s.row))
	for i, v := range s.row {
		out[i] = s.dict.Name(v)
	}
	return out
}

// Enumerate streams every solution of the full CQ over db to yield, without
// materialising the answer relation. After a Yannakakis full reduction the
// traversal never dead-ends, so answers arrive with bounded delay. yield
// returns false to stop early; Enumerate then returns nil. Solutions are
// deduplicated by construction (each corresponds to a distinct assignment).
func (p *PreparedQuery) Enumerate(ctx context.Context, db cq.Database, yield func(Solution) bool) error {
	inst, err := Compile(p.plan.query, db)
	if err != nil {
		return err
	}
	sol := Solution{vars: p.plan.qvars, dict: inst.Dict}
	if p.plan.Naive() {
		return naiveEnumerate(ctx, inst, p.plan.qvars, func(row []Value) bool {
			sol.row = row
			return yield(sol)
		})
	}
	if p.plan.d.Nodes() == 0 {
		if groundSat(inst) {
			sol.row = nil
			yield(sol)
		}
		return nil
	}
	r, err := newRun(ctx, p.plan, inst, p.eng.par())
	if err != nil {
		return err
	}
	if err := r.fullReduce(ctx); err != nil {
		return err
	}
	return r.enumerate(ctx, p.eng.ordered(), func(row []Value) bool {
		sol.row = row
		return yield(sol)
	})
}

// EnumerateAll materialises every solution as a sorted relation (a
// convenience over Enumerate for tests and small result sets).
func (p *PreparedQuery) EnumerateAll(ctx context.Context, db cq.Database) (*Relation, *Dict, error) {
	out := NewRelation(p.plan.qvars...)
	var dict *Dict
	err := p.Enumerate(ctx, db, func(s Solution) bool {
		dict = s.dict
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
	if dict == nil {
		dict = NewDict()
	}
	out.sortPar(p.eng.par())
	return out, dict, nil
}

// CountProjection counts the distinct projections of the solutions onto the
// free variables — the existentially-quantified counting problem of §4.4.
// #P-hard even for acyclic queries (Pichler & Skritek), so this enumerates;
// it exists to make the paper's full-CQ restriction tangible.
func (p *PreparedQuery) CountProjection(ctx context.Context, db cq.Database, free []string) (int64, error) {
	return countProjection(p.plan.qvars, free, func(yield func(Solution) bool) error {
		return p.Enumerate(ctx, db, yield)
	})
}

// countProjection counts the distinct projections of a solution stream onto
// the free variables; shared by the prepared and bound paths.
func countProjection(qvars, free []string, enumerate func(yield func(Solution) bool) error) (int64, error) {
	idx := make([]int, len(free))
	for i, f := range free {
		idx[i] = -1
		for j, v := range qvars {
			if v == f {
				idx[i] = j
				break
			}
		}
		if idx[i] < 0 {
			return 0, fmt.Errorf("engine: free variable %s not in query", f)
		}
	}
	seen := storage.NewTupleMap(len(free), 0)
	buf := make([]Value, len(free))
	satisfied := false
	err := enumerate(func(s Solution) bool {
		satisfied = true
		for i, x := range idx {
			buf[i] = s.row[x]
		}
		seen.Insert(buf)
		return true
	})
	if err != nil {
		return 0, err
	}
	if len(free) == 0 {
		if satisfied {
			return 1, nil
		}
		return 0, nil
	}
	return int64(seen.Len()), nil
}

// ExplainDB renders the plan together with the materialised per-node
// relation sizes over db — bottom-up reduced, as Bind materialises them.
func (p *PreparedQuery) ExplainDB(ctx context.Context, db cq.Database) (string, error) {
	inst, err := Compile(p.plan.query, db)
	if err != nil {
		return "", err
	}
	if p.plan.Naive() || p.plan.d.Nodes() == 0 {
		return p.plan.Explain(), nil
	}
	r, err := newRun(ctx, p.plan, inst, p.eng.par())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(p.plan.Explain())
	for u, rel := range r.nodeRels {
		fmt.Fprintf(&b, "node %d materialised: |rel|=%d\n", u, rel.Len())
	}
	return b.String(), nil
}

// groundSat reports satisfiability of a query whose hypergraph has no edges
// (every atom ground): all atom relations must be non-empty.
func groundSat(inst *Instance) bool {
	for _, r := range inst.AtomRels {
		if r.Len() == 0 {
			return false
		}
	}
	return true
}
