// Package d2cq is a Go reproduction of "The Complexity of Conjunctive
// Queries with Degree 2" (Matthias Lanzinger, PODS 2022). It exposes the
// paper's machinery behind a single import:
//
//   - hypergraphs, duals, primal graphs and reduced forms;
//   - width parameters: α-acyclicity, (generalized) hypertree width with
//     exact values for small degree-2 hypergraphs, fractional covers, and
//     the Lemma 4.6 construction from dual tree decompositions;
//   - hypergraph dilutions (Definition 3.1) with reduction sequences
//     (Lemma 3.6), jigsaws (Definition 4.2), the constructive Excluded Grid
//     analogue (Lemma 4.4 / Theorem 4.7), pre-jigsaws (Definition 5.1), and
//     the NP decision procedure (Theorem 3.5);
//   - conjunctive query evaluation: Yannakakis-style BCQ over GHDs
//     (Proposition 2.2), #CQ counting for full CQs (Proposition 4.14), a
//     naive baseline, homomorphisms, cores and semantic width;
//   - the fpt-reduction along dilution sequences (Theorems 3.4/4.15) and
//     the k-Clique-to-jigsaw hardness witness (Theorem 4.8);
//   - a HyperBench-substitute corpus generator reproducing Table 1.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured record.
package d2cq

import (
	"context"

	"d2cq/internal/cq"
	"d2cq/internal/decomp"
	"d2cq/internal/dilution"
	"d2cq/internal/engine"
	"d2cq/internal/graph"
	"d2cq/internal/hyperbench"
	"d2cq/internal/hypergraph"
	"d2cq/internal/live"
	"d2cq/internal/reduction"
	"d2cq/internal/storage"
	"d2cq/internal/wal"
)

// --- hypergraphs -------------------------------------------------------------

// Hypergraph is a finite hypergraph with named vertices and edges (§2).
type Hypergraph = hypergraph.Hypergraph

// Graph is a finite simple undirected graph.
type Graph = graph.Graph

// MinorMap witnesses a graph minor via branch sets.
type MinorMap = graph.MinorMap

// NewHypergraph returns an empty hypergraph.
func NewHypergraph() *Hypergraph { return hypergraph.New() }

// ParseHypergraph reads the "edge: v1 v2 ..." text format.
func ParseHypergraph(src string) (*Hypergraph, error) { return hypergraph.ParseString(src) }

// HypergraphFromGraph views a graph as a 2-uniform hypergraph.
func HypergraphFromGraph(g *Graph) *Hypergraph { return hypergraph.FromGraph(g) }

// Isomorphic tests hypergraph isomorphism (small instances).
func Isomorphic(a, b *Hypergraph) bool {
	_, ok := hypergraph.Isomorphic(a, b)
	return ok
}

// Grid returns the n×m grid graph.
func Grid(n, m int) *Graph { return graph.Grid(n, m) }

// --- width parameters --------------------------------------------------------

// GHD is a generalized hypertree decomposition.
type GHD = decomp.GHD

// GHWResult carries ghw bounds, exactness and a witness decomposition.
type GHWResult = decomp.GHWResult

// GHWOptions tunes the width computation effort.
type GHWOptions = decomp.GHWOptions

// Acyclic reports α-acyclicity (GYO).
func Acyclic(h *Hypergraph) bool { return decomp.Acyclic(h) }

// GHW computes generalized hypertree width (exact for small degree-2
// hypergraphs, sandwiching bounds otherwise).
func GHW(h *Hypergraph, opts *GHWOptions) (GHWResult, error) { return decomp.GHW(h, opts) }

// HypertreeWidth computes hw(h) with a witnessing decomposition.
func HypertreeWidth(h *Hypergraph) (*GHD, int, bool, error) { return decomp.HypertreeWidth(h, 0) }

// GHDFromDualTD builds a GHD of width tw(H^d)+1 via Lemma 4.6.
func GHDFromDualTD(h *Hypergraph) (*GHD, error) { return decomp.GHDFromDualTD(h) }

// FractionalCoverUpper returns an fhw upper bound over a decomposition.
func FractionalCoverUpper(h *Hypergraph, d *GHD) float64 { return decomp.FHWUpper(h, d) }

// --- dilutions (the paper's core) ---------------------------------------------

// DilutionOp is one dilution operation (Definition 3.1).
type DilutionOp = dilution.Op

// DilutionSequence is a list of dilution operations.
type DilutionSequence = dilution.Sequence

// DilutionStep records one applied operation with edge-origin tracking.
type DilutionStep = dilution.Step

// Dilution operation kinds.
const (
	DeleteVertex  = dilution.DeleteVertex
	DeleteSubedge = dilution.DeleteSubedge
	Merge         = dilution.Merge
)

// ApplyDilution performs one dilution operation.
func ApplyDilution(h *Hypergraph, op DilutionOp) (*DilutionStep, error) { return dilution.Apply(h, op) }

// ApplyDilutionSequence applies a whole sequence.
func ApplyDilutionSequence(h *Hypergraph, seq DilutionSequence) ([]*DilutionStep, *Hypergraph, error) {
	return dilution.ApplySequence(h, seq)
}

// ReduceSequence computes a dilution sequence to the reduced hypergraph
// (Lemma 3.6).
func ReduceSequence(h *Hypergraph) (DilutionSequence, *Hypergraph, error) {
	return dilution.ReduceSequence(h)
}

// Jigsaw builds the n×m-jigsaw (Definition 4.2).
func Jigsaw(n, m int) *Hypergraph { return dilution.Jigsaw(n, m) }

// IsJigsaw recognises jigsaws up to isomorphism.
func IsJigsaw(h *Hypergraph) (n, m int, ok bool) { return dilution.IsJigsaw(h) }

// ExtractJigsaw runs the Theorem 4.7 pipeline: reduce, dualise, find a grid
// minor, and dilute to the n×n-jigsaw.
func ExtractJigsaw(h *Hypergraph, n int) (DilutionSequence, *Hypergraph, error) {
	return dilution.ExtractJigsaw(h, n, nil)
}

// DecideDilution decides whether target is a dilution of h (NP-complete,
// Theorem 3.5; exhaustive search with pruning).
func DecideDilution(h, target *Hypergraph) (bool, error) { return dilution.Decide(h, target, nil) }

// --- conjunctive queries -------------------------------------------------------

// Query is a conjunctive query.
type Query = cq.Query

// Atom is a relational atom.
type Atom = cq.Atom

// Term is a variable or constant.
type Term = cq.Term

// Database maps relation names to tuples of constants.
type Database = cq.Database

// Var and Const build terms.
func Var(name string) Term   { return cq.V(name) }
func Const(name string) Term { return cq.C(name) }

// ParseQuery parses "R(x,y), S(y,'c')".
func ParseQuery(src string) (Query, error) { return cq.ParseQuery(src) }

// ParseDatabase parses one ground atom per line.
func ParseDatabase(src string) (Database, error) { return cq.ParseDatabaseString(src) }

// Core computes the core of a query.
func Core(q Query) Query { return cq.Core(q) }

// Equivalent tests homomorphic equivalence of queries.
func Equivalent(q1, q2 Query) bool { return cq.Equivalent(q1, q2) }

// SemanticGHW returns the semantic generalized hypertree width of q (§4.3).
func SemanticGHW(q Query) (GHWResult, error) { return cq.SemanticGHW(q) }

// --- evaluation ----------------------------------------------------------------

// Engine owns query-compilation policy and a bounded decomposition cache.
// Share one Engine process-wide; Prepare compiles a query once and the
// resulting PreparedQuery evaluates any number of databases concurrently.
type Engine = engine.Engine

// PreparedQuery is a compiled, immutable, concurrency-safe query plan. Bind
// pairs it with a CompiledDB; its Bool / Count / Enumerate / ExplainDB
// methods over a plain Database are each a one-shot CompileDB of the
// relations the query reads, a Bind, and the BoundQuery method of the same
// name, so repeated traffic over one database should bind once instead.
type PreparedQuery = engine.PreparedQuery

// CompiledDB is a database compiled once by Engine.CompileDB: constants
// interned, relations compiled into flat tables of interned rows.
// Share one CompiledDB across any number of concurrent Binds and
// evaluations. A CompiledDB is a snapshot: CompiledDB.Apply(ctx, delta)
// produces the next snapshot copy-on-write, sharing every untouched relation
// (and the append-friendly dictionary) with its parent — a table any delta
// reaches turns persistent, sharing its untouched rows too — so once a
// table has taken its first delta, an update stream costs time proportional
// to the change, not the database.
type CompiledDB = engine.CompiledDB

// BoundQuery is a PreparedQuery bound to a CompiledDB: dictionary, atom
// relations and decomposition node relations are built once at bind time,
// so Bool and Count read them and Enumerate walks them from the root down,
// building its indexes on its first call. PreparedQuery.Bind builds the node
// relations bottom-up reduced, and maintenance keeps them so. Safe for concurrent use.
// BoundQuery.Update(ctx, delta) (or CompiledDB.Apply + BoundQuery.Rebind,
// to share one new snapshot across several bound queries) carries the bound
// state forward incrementally: only the atoms, decomposition nodes and
// cached reduction/count subtrees a delta actually reaches are recomputed,
// and the receiver keeps answering over its own snapshot.
type BoundQuery = engine.BoundQuery

// Delta is a batch of tuple insertions and deletions against a CompiledDB.
// Deletions apply first; both are set-semantics no-ops when they do not
// change the relation. Build one with NewDelta().Add(...).Remove(...).
type Delta = storage.Delta

// NewDelta returns an empty Delta.
func NewDelta() *Delta { return storage.NewDelta() }

// EngineOption configures NewEngine.
type EngineOption = engine.Option

// EngineStats snapshots engine traffic (prepares, decompositions computed,
// cache hits/misses/evictions).
type EngineStats = engine.Stats

// Solution is one streamed answer of PreparedQuery.Enumerate.
type Solution = engine.Solution

// Plan is the immutable compiled plan behind a PreparedQuery.
type Plan = engine.Plan

// NewEngine returns an engine with a bounded decomposition cache.
func NewEngine(opts ...EngineOption) *Engine { return engine.NewEngine(opts...) }

// WithMaxWidth bounds the decomposition width accepted by Prepare.
func WithMaxWidth(w int) EngineOption { return engine.WithMaxWidth(w) }

// ErrWidthExceeded is returned (wrapped) by Prepare when the query has no
// decomposition within the WithMaxWidth bound.
var ErrWidthExceeded = engine.ErrWidthExceeded

// WithDecompCache bounds the engine's decomposition cache (0 disables).
func WithDecompCache(capacity int) EngineOption { return engine.WithDecompCache(capacity) }

// CompileDB compiles db once with the shared default engine. Pair with
// PreparedQuery.Bind for the full compile-once / evaluate-many discipline on
// both the query and the data side.
func CompileDB(ctx context.Context, db Database) (*CompiledDB, error) {
	return engine.Default().CompileDB(ctx, db)
}

// Prepare compiles q once with the shared default engine. For custom policy
// (width bounds, cache sizing) build an Engine with
// NewEngine and call its Prepare.
func Prepare(ctx context.Context, q Query) (*PreparedQuery, error) {
	return engine.Default().Prepare(ctx, q)
}

// NaiveBCQ is the decomposition-free backtracking baseline.
func NaiveBCQ(q Query, db Database) (bool, error) { return engine.NaiveBCQ(q, db) }

// NaiveCount counts solutions by exhaustive backtracking.
func NaiveCount(q Query, db Database) (int64, error) { return engine.NaiveCount(q, db) }

// NaiveEnumerate streams every solution from the naive backtracking
// baseline (ground truth; no decomposition is computed). The Solution's
// value slice is reused between yields; yield returns false to stop early.
func NaiveEnumerate(q Query, db Database, yield func(Solution) bool) error {
	return engine.NaiveSolutions(q, db, yield)
}

// --- live serving ---------------------------------------------------------------

// LiveStore is the serving layer over the incremental engine: it owns an
// evolving CompiledDB snapshot plus a registry of named bound queries,
// coalesces Submit-ted Deltas into batched snapshot steps (one coalesced
// batch → one Apply → one Rebind per query), and pushes result-change
// notifications to Watch subscribers. cmd/d2cqd serves one over HTTP/JSON
// with SSE.
type LiveStore = live.Store

// LiveConfig sizes the per-query notification ring, which bounds both
// watcher lag and resume history. Flushing needs no tuning: it is group
// commit.
type LiveConfig = live.Config

// LiveStats snapshots a LiveStore's traffic: snapshot version, coalescing
// counters (TuplesSubmitted vs FlushedTuples), notification/drop counts and
// the engine stats behind it.
type LiveStats = live.Stats

// Notification is one result-change event of a watched query: new/previous
// counts and the exact added/removed solution tuples, with slow-consumer
// loss surfaced as Lagged.
type Notification = live.Notification

// Subscription is one Watch registration: a cursor into the query's shared
// broadcast ring. Receive with Next/TryNext, Cancel to detach.
type Subscription = live.Subscription

// ErrLiveClosed is returned by operations on a closed LiveStore.
var ErrLiveClosed = live.ErrClosed

// NewLiveStore compiles db once and starts the store's background flusher.
// A nil engine gets a fresh default one.
func NewLiveStore(ctx context.Context, eng *Engine, db Database, cfg LiveConfig) (*LiveStore, error) {
	return live.NewStore(ctx, eng, db, cfg)
}

// --- durability -----------------------------------------------------------------

// LiveDurableConfig configures a durable LiveStore: the wal.Backend the log
// and checkpoints live on and the fsync policy, wrapped around the usual
// LiveConfig. Checkpoints need no setting: one is written once the log since
// the last has grown to that checkpoint's size.
type LiveDurableConfig = live.DurableConfig

// LiveDurabilityStats is the durability section of LiveStats: log position,
// segment/checkpoint counts, replay and fsync-policy information.
type LiveDurabilityStats = live.DurabilityStats

// WALBackend is the storage a durable LiveStore writes through: append-only
// log segments plus atomically-replaced checkpoint blobs. NewWALDir opens
// the filesystem implementation; NewWALMem backs tests.
type WALBackend = wal.Backend

// NewWALDir opens (creating if needed) a filesystem WAL directory.
func NewWALDir(dir string) (*wal.FS, error) { return wal.NewFS(dir) }

// NewWALMem returns an in-memory WAL backend whose Clone method freezes
// power-cut images for crash-recovery testing.
func NewWALMem() *wal.Mem { return wal.NewMem() }

// OpenLiveStore opens a durable LiveStore over cfg.Backend: it restores the
// newest checkpoint, replays the write-ahead log suffix (re-registering
// logged queries and re-applying logged delta batches), and then serves and
// logs exactly like NewLiveStore. A store that was SIGKILLed resumes at its
// precise pre-crash version; Watch subscribers reconnecting with a version
// cursor (Store.Subscribe) resume their notification stream without a fresh
// snapshot when the cursor is inside the retained history window.
func OpenLiveStore(ctx context.Context, eng *Engine, cfg LiveDurableConfig) (*LiveStore, error) {
	return live.Open(ctx, eng, cfg)
}

// --- reductions -----------------------------------------------------------------

// Instance is a canonical query/database pair for a hypergraph.
type Instance = reduction.Instance

// CanonicalQuery builds the canonical CQ of a hypergraph (one atom per edge).
func CanonicalQuery(h *Hypergraph) Query { return reduction.CanonicalQuery(h) }

// NewInstance pairs a hypergraph with an empty canonical database.
func NewInstance(h *Hypergraph) Instance { return reduction.NewInstance(h) }

// ReverseDilution pulls an instance backwards along a dilution sequence
// (Theorems 3.4 and 4.15; solution-projection preserving and parsimonious).
func ReverseDilution(steps []*DilutionStep, final Instance) (Instance, error) {
	return reduction.ReverseDilution(steps, final)
}

// AlignInstance renames an arbitrary self-join-free instance onto the
// canonical form of an isomorphic hypergraph.
func AlignInstance(q Query, db Database, m *Hypergraph) (Instance, error) {
	return reduction.AlignInstance(q, db, m)
}

// CliqueToJigsaw compiles k-Clique into a BCQ over the k×k-jigsaw
// (the Theorem 4.8 hardness witness).
func CliqueToJigsaw(g *Graph, k int) (Instance, error) { return reduction.CliqueToJigsaw(g, k) }

// --- corpus ----------------------------------------------------------------------

// Corpus is a generated HyperBench-substitute collection.
type Corpus = hyperbench.Corpus

// CorpusOptions seeds and sizes the corpus.
type CorpusOptions = hyperbench.Options

// GenerateCorpus builds the degree-2 corpus with ghw data (Table 1 input).
// The ghw census runs one entry per core; the corpus is the same on any
// number of cores.
func GenerateCorpus(opts CorpusOptions) (*Corpus, error) { return hyperbench.Generate(opts) }

// --- additional conveniences -----------------------------------------------------

// GHWByComponent computes ghw per connected component and aggregates.
func GHWByComponent(h *Hypergraph, opts *GHWOptions) (GHWResult, []GHWResult, error) {
	return decomp.GHWByComponent(h, opts)
}

// ParseDilutionSequence reads a sequence, one "merge(v)" / "delete-vertex(v)"
// / "delete-subedge(e)" per line.
func ParseDilutionSequence(src string) (DilutionSequence, error) {
	return dilution.ParseSequenceString(src)
}

// SplitJigsaw builds a degree-2 pre-jigsaw with its Definition 5.1 witness
// and the merge sequence back to the jigsaw.
func SplitJigsaw(n, m int) (*Hypergraph, *PreJigsawWitness, DilutionSequence) {
	return dilution.SplitJigsaw(n, m)
}

// PreJigsawWitness is a Definition 5.1 witness.
type PreJigsawWitness = dilution.PreJigsawWitness

// VerifyPreJigsaw checks a Definition 5.1 witness.
func VerifyPreJigsaw(h *Hypergraph, w *PreJigsawWitness) error {
	return dilution.VerifyPreJigsaw(h, w)
}

// ExpressiveMinor witnesses Definition D.1 (Appendix D / Theorem 5.2).
type ExpressiveMinor = dilution.ExpressiveMinor
