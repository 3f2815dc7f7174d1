package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"d2cq/internal/cq"
	"d2cq/internal/decomp"
	"d2cq/internal/hypergraph"
)

// Engine owns the policy and the shared caches of query compilation: how
// hard to search for a decomposition and how many decompositions to keep.
// One Engine is meant to be shared process-wide and used concurrently from
// many goroutines; the expensive, data-independent compilation (parse →
// hypergraph → GHD → node plan) happens once per query shape in Prepare, and
// the resulting PreparedQuery evaluates any number of databases.
type Engine struct {
	cache    *decomp.Cache
	maxWidth int

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

	// What incremental maintenance did (see Stats).
	atomDeltaFast  atomic.Uint64
	nodeDeltaJoins atomic.Uint64
	nodeRebuilds   atomic.Uint64
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
	done      chan struct{}
	d         *decomp.GHD
	err       error
	abandoned bool // the owner's ctx ended before the search did
}

// Option configures an Engine.
type Option func(*Engine)

// WithMaxWidth rejects queries whose decomposition width exceeds w. Zero
// means no bound.
func WithMaxWidth(w int) Option {
	return func(e *Engine) { e.maxWidth = w }
}

// WithDecompCache bounds the decomposition cache to capacity entries
// (default 256). Zero disables caching.
func WithDecompCache(capacity int) Option {
	return func(e *Engine) { e.cache = decomp.NewCache(capacity) }
}

// defaultEngine is the process-wide engine behind Default.
var defaultEngine = NewEngine()

// Default returns the process-wide engine, shared so that ad-hoc prepares
// still benefit from its decomposition cache.
func Default() *Engine { return defaultEngine }

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

	// What incremental maintenance did. Rebind has one path for every
	// delta; these count what it cost. A dirty atom's delta is read off the
	// two tables' row maps, which share everything the change did not touch
	// (AtomDeltaFast). AtomDeltaScan counts nothing: Apply leaves every table
	// a delta reaches persistent, so no atom diff lists a whole table; it
	// stays for the readers of the counter pair. A node with a changed input
	// is delta-joined (NodeDeltaJoins); a query's first Rebind converts each
	// node to maintained form once (NodeRebuilds).
	AtomDeltaFast  uint64
	AtomDeltaScan  uint64
	NodeDeltaJoins uint64
	NodeRebuilds   uint64
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

// ErrWidthExceeded is returned (wrapped) by Prepare when the query has no
// decomposition within the WithMaxWidth bound. The search stops at the
// bound, so refusing a wide query costs no more than the searches up to it.
var ErrWidthExceeded = decomp.ErrWidthExceeded

// Prepare compiles q into a reusable evaluation plan: it builds the query
// hypergraph, finds (or fetches from the cache) a decomposition, and fixes
// the node plan. The returned PreparedQuery is immutable and safe for
// concurrent use; each evaluation call binds a database. The decomposition
// search honours ctx: when ctx ends, Prepare returns ctx's error. A query
// without variables has the empty decomposition, which NewPlan plans as one
// node.
func (e *Engine) Prepare(ctx context.Context, q cq.Query) (*PreparedQuery, error) {
	e.prepares.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h := q.Hypergraph()
	key := decomp.CacheKey(h)
	d, err := e.decompFor(ctx, h, key)
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%w for %s", err, q)
	}
	p, err := NewPlan(q, d)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{eng: e, plan: p}, nil
}

// decompFor returns the decomposition for the keyed hypergraph, consulting
// the cache and collapsing concurrent misses for the same key into a single
// computation. A flight caches its result before it leaves inflight, so a
// miss that finds no flight looks at the cache once more, under flightMu: the
// flight it missed may have finished in between. A success is cached, and so
// is a refusal under WithMaxWidth, as a nil decomposition: the bound is
// engine-wide, so the shape alone decides it. No other error is cached. A
// waiter stops waiting when its own ctx ends; when the flight's owner gave up
// because its ctx ended, a waiter whose ctx lives on searches itself.
func (e *Engine) decompFor(ctx context.Context, h *hypergraph.Hypergraph, key string) (*decomp.GHD, error) {
	if d, ok := e.cache.Get(key); ok {
		return d, e.refused(d)
	}
	for {
		e.flightMu.Lock()
		if f, ok := e.inflight[key]; ok {
			e.flightMu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.abandoned {
				continue
			}
			return f.d, f.err
		}
		if d, ok := e.cache.Peek(key); ok {
			e.flightMu.Unlock()
			return d, e.refused(d)
		}
		f := &flight{done: make(chan struct{})}
		e.inflight[key] = f
		e.flightMu.Unlock()

		e.decompComputed.Add(1)
		f.d, f.err = decomp.EvalDecomposition(ctx, h, e.maxWidth)
		if f.err == nil || errors.Is(f.err, ErrWidthExceeded) {
			e.cache.Put(key, f.d)
		}
		f.abandoned = f.err != nil && ctx.Err() != nil
		e.flightMu.Lock()
		delete(e.inflight, key)
		e.flightMu.Unlock()
		close(f.done)
		return f.d, f.err
	}
}

// refused returns the error of a cached decomposition: ErrWidthExceeded for
// the nil that records a refusal.
func (e *Engine) refused(d *decomp.GHD) error {
	if d == nil {
		return fmt.Errorf("%w: hw > %d", ErrWidthExceeded, e.maxWidth)
	}
	return nil
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

// bindDB compiles the relations the query reads from db, and only those,
// and binds the query to them. The database-taking methods below are each
// this one-shot bind followed by the BoundQuery method of the same name; a
// malformed relation the query never reads is never compiled, so it is not
// an error.
func (p *PreparedQuery) bindDB(ctx context.Context, db cq.Database) (*BoundQuery, error) {
	read := make(cq.Database, len(p.plan.query.Atoms))
	for _, a := range p.plan.query.Atoms {
		read[a.Rel] = db[a.Rel]
	}
	cdb, err := p.eng.CompileDB(ctx, read)
	if err != nil {
		return nil, err
	}
	return p.Bind(ctx, cdb)
}

// Bool decides q(db) ≠ ∅ (Proposition 2.2: polynomial for bounded ghw).
func (p *PreparedQuery) Bool(ctx context.Context, db cq.Database) (bool, error) {
	b, err := p.bindDB(ctx, db)
	if err != nil {
		return false, err
	}
	return b.Bool(ctx)
}

// Count computes |q(db)| for a full CQ (Proposition 4.14: polynomial for
// bounded ghw).
func (p *PreparedQuery) Count(ctx context.Context, db cq.Database) (int64, error) {
	b, err := p.bindDB(ctx, db)
	if err != nil {
		return 0, err
	}
	return b.Count(ctx)
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
// materialising the answer relation. The traversal runs from the root down
// over the bottom-up reduced nodes, where every row has a partner in each
// child, so it never dead-ends and answers arrive with bounded delay. yield
// returns false to stop early; Enumerate then returns nil. Solutions are
// deduplicated by construction (each corresponds to a distinct assignment).
func (p *PreparedQuery) Enumerate(ctx context.Context, db cq.Database, yield func(Solution) bool) error {
	b, err := p.bindDB(ctx, db)
	if err != nil {
		return err
	}
	return b.Enumerate(ctx, yield)
}

// EnumerateAll materialises every solution as a sorted relation (a
// convenience over Enumerate for tests and small result sets).
func (p *PreparedQuery) EnumerateAll(ctx context.Context, db cq.Database) (*Relation, *Dict, error) {
	b, err := p.bindDB(ctx, db)
	if err != nil {
		return nil, nil, err
	}
	return b.EnumerateAll(ctx)
}

// ExplainDB renders the plan together with the materialised per-node
// relation sizes over db — bottom-up reduced, as Bind materialises them.
func (p *PreparedQuery) ExplainDB(ctx context.Context, db cq.Database) (string, error) {
	b, err := p.bindDB(ctx, db)
	if err != nil {
		return "", err
	}
	return b.ExplainDB(), nil
}
