// Package live is the serving layer over the incremental engine: a Store
// owns an evolving compiled database snapshot together with a registry of
// named bound queries, absorbs a stream of small storage.Deltas by
// coalescing them into batched snapshot steps (one set-semantic coalesced
// batch → one CompiledDB.Apply → one Rebind per query), and pushes
// result-change notifications to Watch subscribers instead of making every
// consumer poll and re-count.
//
// The Store is the piece between the paper's count/enumerate primitives and
// a network-facing service: cmd/d2cqd exposes it over HTTP/JSON with an SSE
// watch stream, and over the binary wire protocol of internal/wire.
package live

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
	"d2cq/internal/storage"
)

// Config sizes a Store's per-query notification ring. The zero value is
// usable. Flushing has no knobs: it is group commit (see Submit).
type Config struct {
	// Deprecated: ignored; flushing is group commit.
	MaxBatch int
	// Deprecated: ignored; flushing is group commit.
	MaxLatency time.Duration
	// History is the capacity of each query's broadcast ring: the last
	// History change-notifications are kept, one shared copy per query. It
	// bounds both how far a slow subscriber may fall behind before it loses
	// the oldest unread ones (counted, see Notification.Lagged) and how far
	// back a reconnecting watcher may resume from a version cursor
	// (Subscribe) without a fresh snapshot. Every staged query's diff feeds
	// the ring, watched or not, so a watcher that connects later can resume.
	// Default 256.
	History int
}

const defaultRing = 256

func (c Config) withDefaults() Config {
	if c.History <= 0 {
		c.History = defaultRing
	}
	return c
}

// ErrClosed is returned by the mutating operations (Submit, SubmitSync,
// Flush, Register, Subscribe) on a closed Store. The read accessors — Count,
// Info, Queries, Solutions, Version, Stats — keep answering from the final
// snapshot.
var ErrClosed = errors.New("live: store closed")

// ErrInvalidDelta wraps Submit's and SubmitSync's rejection of a delta whose
// tuples mismatch a relation's arity (errors.Is-matchable, so servers can
// tell the submitter's mistake from a failed flush).
var ErrInvalidDelta = errors.New("live: invalid delta")

// ErrQueryConflict wraps Register's rejection of a taken name bound to a
// different query (errors.Is-matchable, so servers can map it to a conflict
// status distinct from compilation failures).
var ErrQueryConflict = errors.New("live: query name already registered")

// Store is a live view-maintenance service over one evolving database: the
// current CompiledDB snapshot, the registered bound queries maintained
// incrementally across snapshots, the coalescing ingestion pipeline, and the
// Watch subscriber registry. All methods are safe for concurrent use.
//
// # Lock protocol
//
// Two mutexes split the flush pipeline from the observable state:
//
//   - flushMu serialises the pipeline: batch staging (Apply, Rebind, Count,
//     DiffFrom, notification decoding), WAL appends, checkpoint encoding,
//     query registration and watch admission. All the engine work of a flush
//     runs under flushMu with mu RELEASED, so submitters and readers are
//     never stuck behind a slow stage.
//   - mu guards the observable state below and is held only for pointer-swap
//     commits and plain reads — its hold times are O(registry), never
//     O(data).
//
// flushMu is always acquired BEFORE mu; nothing acquires flushMu while
// holding mu. Fields written under BOTH locks (cdb, version, queries map
// shape, relArity, per-query bound/count) may be read under EITHER: readers
// holding just mu see committed state, the pipeline holding just flushMu
// sees its own serialised writes. Subscriber lists and the pending batch are
// written under mu alone — Submit and Subscription.Cancel must stay
// wait-free during a stage — so the pipeline reads them only inside short mu
// sections. The WAL log-then-commit ordering of PR 6 is preserved: the
// append happens under flushMu after staging, strictly before the commit
// that makes the version observable, and flushMu keeps appends in version
// order.
type Store struct {
	eng *engine.Engine
	cfg Config

	flushMu sync.Mutex // serialises stage → WAL append → commit; before mu

	mu        sync.Mutex
	cdb       *engine.CompiledDB // written under flushMu+mu
	version   uint64             // written under flushMu+mu
	queries   map[string]*liveQuery
	readers   map[string][]*liveQuery // relation → the queries reading it, in name order; written under flushMu+mu
	stageSeq  uint64                  // numbers the stages, for liveQuery.stageMark; flushMu only
	relArity  map[string]int          // arity each relation must have per the registered queries' atoms
	pending   *storage.Coalescer
	submitSeq uint64 // numbers the deltas merged into pending; mu only
	closed    bool   // written under flushMu+mu
	nextSubID int

	// committedSeq is the submitSeq the last committed flush took its batch
	// at: every delta numbered up to it is visible. flushMu only, which is
	// what lets concurrent SubmitSync callers share one flush.
	committedSeq uint64

	// dur wires the write-ahead log and checkpointing in when the store was
	// created with Open; nil for a purely in-memory store. The pointer is
	// fixed at construction; its counters carry their own lock.
	dur *durability

	// kick wakes the flusher: Submit and a restore after a cancelled caller
	// send on it. It holds one token and is sent to without blocking, so a
	// sender never waits and may hold either lock or none; a token sent
	// mid-flush makes the flusher run once more, picking up what arrived.
	kick    chan struct{}
	closeCh chan struct{}
	doneCh  chan struct{} // flusher exited

	stats storeCounters

	// stageHook, when set (tests only, before traffic starts), runs at the
	// top of every stage — under flushMu, outside mu — so tests can hold a
	// flush mid-stage and assert Submit/Count/Stats still make progress.
	stageHook func()
}

// storeCounters are the monotonic half of Stats, guarded by Store.mu.
type storeCounters struct {
	deltasSubmitted uint64
	tuplesSubmitted uint64
	flushes         uint64
	flushedTuples   uint64
	notifications   uint64
	dropped         uint64
	flushErrors     uint64
	lastError       string

	// Flush-phase timings (satellite of the O(change) flush path): where a
	// flush spends its time, and — the flat-tail claim — how briefly it ever
	// holds mu.
	stageNs       uint64
	commitNs      uint64
	walNs         uint64
	lockHoldNs    uint64
	lastStageNs   uint64
	lastCommitNs  uint64
	lastWalNs     uint64
	maxLockHoldNs uint64
	diffRows      uint64
	stagedQueries uint64
}

// liveQuery is one registered query: its prepared plan, the bound snapshot
// being maintained, and the subscribers watching it.
type liveQuery struct {
	name  string
	src   string // canonical query text, for idempotent re-registration
	query cq.Query
	rels  []string // the distinct relations the query reads, sorted
	bound *engine.BoundQuery
	count int64
	subs  []*Subscription

	// stageMark is the number of the last stage that picked the query up, so
	// a batch touching two of its relations stages it once. flushMu only.
	stageMark uint64

	// ring is the query's shared broadcast buffer — ONE copy of each recent
	// change notification, oldest first, immutable once appended — serving
	// both live fan-out (every Subscription holds a cursor into it) and
	// resume from a version cursor (Subscribe). ringStart is the broadcast
	// sequence number of ring[0]; the sequence is dense and per-query,
	// distinct from snapshot versions. Capacity is Config.History; appending
	// past it evicts the oldest entry and charges every subscriber still
	// behind it.
	//
	// histFloor is the resume floor: it starts at the registration
	// version and advances to the evicted entry's version on every
	// eviction. The resume invariant — every change with Version >
	// histFloor sits in the ring — lets a cursor at or above the floor
	// resume exactly; below it the subscriber has a hole.
	ring      []Notification
	ringStart uint64
	histFloor uint64

	// resumes counts credit-stall recoveries across this query's credited
	// subscriptions (Subscription.Grant un-parking a parked cursor) —
	// cumulative, surviving the subscriptions themselves, so Stats can report
	// how often watchers of this query stalled and resumed.
	resumes uint64
}

// ringEnd returns the broadcast sequence one past the newest ring entry —
// the cursor of a subscriber that is fully caught up.
func (lq *liveQuery) ringEnd() uint64 { return lq.ringStart + uint64(len(lq.ring)) }

// NewStore compiles db once and starts the background flusher. A nil engine
// gets a fresh default one; share an engine across stores (and with direct
// API users) to share its decomposition cache. The store's first version is
// the wall clock in microseconds (see firstVersion), not 1.
func NewStore(ctx context.Context, eng *engine.Engine, db cq.Database, cfg Config) (*Store, error) {
	if eng == nil {
		eng = engine.NewEngine()
	}
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		return nil, err
	}
	s := newStore(eng, cfg, cdb, firstVersion())
	go s.flusher()
	return s, nil
}

// firstVersion is the version an in-memory store starts at: the wall clock
// in microseconds. Such a store's changes die with its process, so a cursor
// a client kept from an earlier run (an SSE Last-Event-ID, a wire WATCH
// From) must never resume against this one. An earlier run started before
// this one and flushed at most once per microsecond, so all its versions lie
// below this store's, under every query's resume floor: Subscribe answers
// them with a fresh snapshot. A durable store persists its version instead
// (Open), so its cursors stay valid across restarts.
func firstVersion() uint64 {
	return uint64(max(time.Now().UnixMicro(), 1))
}

// newStore builds a store at the given snapshot and version with an empty
// registry. The caller starts the flusher once the store is ready to serve.
func newStore(eng *engine.Engine, cfg Config, cdb *engine.CompiledDB, version uint64) *Store {
	return &Store{
		eng:      eng,
		cfg:      cfg.withDefaults(),
		cdb:      cdb,
		version:  version,
		queries:  map[string]*liveQuery{},
		readers:  map[string][]*liveQuery{},
		relArity: map[string]int{},
		pending:  storage.NewCoalescer(),
		kick:     make(chan struct{}, 1),
		closeCh:  make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
}

// Engine returns the engine the store evaluates with.
func (s *Store) Engine() *engine.Engine { return s.eng }

// Register prepares and binds a named query over the current snapshot and
// starts maintaining it across flushes. Bind runs the counting pass and
// leaves the enumeration state ready, so every later flush maintains both
// incrementally and Watch diffs stay cheap. Re-registering the same name with
// the same query is a no-op; a different query under a taken name is an
// error.
func (s *Store) Register(ctx context.Context, name string, q cq.Query) error {
	return s.register(ctx, name, q, true)
}

// register is Register with the WAL append gated: recovery replays query
// records through it with logIt=false (they are already in the log).
//
// It holds flushMu for the whole body: registration must serialise against
// the flush pipeline (the new query either sees a snapshot entirely before a
// flush or entirely after, never a half-committed one) and against other
// registrations (the conflict check and the map insert must be atomic). The
// expensive part — Bind and the initial Count — runs with mu released, so
// readers and submitters keep flowing while a query spins up.
func (s *Store) register(ctx context.Context, name string, q cq.Query, logIt bool) error {
	if name == "" {
		return errors.New("live: empty query name")
	}
	src := q.String()
	prep, err := s.eng.Prepare(ctx, q)
	if err != nil {
		return err
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if lq, ok := s.queries[name]; ok {
		src0 := lq.src
		s.mu.Unlock()
		if src0 == src {
			return nil
		}
		return fmt.Errorf("%w: %q is %s", ErrQueryConflict, name, src0)
	}
	// Reject atoms whose arity conflicts with what earlier registrations
	// fixed for an absent relation (Bind cannot catch that — it binds an
	// empty relation at any arity), or with what the PENDING batch already
	// fixed: an insert coalesced into s.pending pins an unknown relation's
	// arity exactly as a committed table would, and admitting a conflicting
	// registration would make the next flush's Rebind fail deterministically
	// — stageFail would then drop the whole batch as poison, losing other
	// submitters' tuples. Conflicts against existing tables fail in Bind
	// below with the same engine error.
	for _, a := range q.Atoms {
		if err := s.atomArityLocked(a); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	// Reserve the atoms' arities before releasing mu for Bind: Submit holds
	// only mu, so without the reservation an insert landing mid-Bind could
	// fix a conflicting arity for a relation this query reads — reopening
	// the poison window the check above just closed. First registration
	// wins, exactly as the commit below used to record; on failure the
	// reservations are rolled back.
	var reserved []string
	for _, a := range q.Atoms {
		if _, ok := s.relArity[a.Rel]; !ok {
			s.relArity[a.Rel] = len(a.Args)
			reserved = append(reserved, a.Rel)
		}
	}
	s.mu.Unlock()
	unreserve := func() {
		s.mu.Lock()
		for _, rel := range reserved {
			delete(s.relArity, rel)
		}
		s.mu.Unlock()
	}
	// The query is bound to — and from then on rebound to — the snapshot cut
	// down to the relations it reads: a flush that does not touch them never
	// visits the query (see stage), so whatever snapshot the query holds on to
	// must not keep the rest of the database as of that moment alive.
	rels := relationsOf(q)
	bound, err := prep.Bind(ctx, s.cdb.Restrict(rels))
	if err != nil {
		unreserve()
		return err
	}
	// Bind has run the counting DP: Count only reads its total.
	count, err := bound.Count(ctx)
	if err != nil {
		unreserve()
		return err
	}
	// Log the registration before committing it: recovery must re-register
	// in the same order relative to the delta records, or replayed arities
	// and diffs could diverge from what the live store computed.
	if logIt && s.dur != nil {
		if err := s.dur.appendQuery(name, src); err != nil {
			unreserve()
			return fmt.Errorf("live: logging registration: %w", err)
		}
	}
	s.mu.Lock()
	lq := &liveQuery{name: name, src: src, query: q, rels: rels, bound: bound, count: count, histFloor: s.version}
	s.queries[name] = lq
	// Index the query under every relation it reads, each list in name order,
	// here where the registry grows (it never shrinks): a flush then finds
	// the queries its batch reaches without looking at any other.
	for _, rel := range rels {
		at, _ := slices.BinarySearchFunc(s.readers[rel], name, func(q *liveQuery, name string) int { return strings.Compare(q.name, name) })
		s.readers[rel] = slices.Insert(s.readers[rel], at, lq)
	}
	// The arity each atom demands of its relation was recorded by the
	// reservation above and stays: Submit validation rejects deltas that
	// would create a relation no registered query could ever bind against
	// (Bind would fail the whole flush otherwise).
	s.mu.Unlock()
	if s.dur != nil {
		s.dur.maybeCheckpoint(s)
	}
	return nil
}

// relationsOf lists the distinct relations q's atoms read, sorted.
func relationsOf(q cq.Query) []string {
	var rels []string
	for _, a := range q.Atoms {
		rels = append(rels, a.Rel)
	}
	slices.Sort(rels)
	return slices.Compact(rels)
}

// atomArityLocked rejects a query atom whose arity conflicts with what an
// earlier registration (s.relArity) or an insert already coalesced into the
// pending batch has fixed for its relation. Pending() may still list inserts
// a later delete tombstoned, but every insert accepted into the batch passed
// Submit's arity validation, so any of them pins the right arity.
func (s *Store) atomArityLocked(a cq.Atom) error {
	if want, ok := s.relArity[a.Rel]; ok && want != len(a.Args) {
		return fmt.Errorf("live: atom %s has arity %d, but relation %s is registered with arity %d",
			a.Rel, len(a.Args), a.Rel, want)
	}
	if ts := s.pending.Pending().Insert[a.Rel]; len(ts) > 0 && len(ts[0]) != len(a.Args) {
		return fmt.Errorf("live: atom %s has arity %d, but %d-ary tuples for %s are already pending",
			a.Rel, len(a.Args), len(ts[0]), a.Rel)
	}
	return nil
}

// Submit enqueues a delta into the ingestion pipeline: it is merged into the
// pending coalesced batch (set semantics — resubmitting the same tuples does
// not grow the batch) and wakes the flusher. Flushing is group commit: an
// idle flusher applies the batch at once, and deltas that arrive while a
// flush runs coalesce into the next one, so the batch size follows the load.
// Submit does no evaluation itself and never waits for one: a flush's engine
// work runs outside mu (see the lock protocol on Store), so Submit's latency
// is bounded by merging into the pending batch plus other O(registry)
// critical sections. A delta whose tuples mismatch a relation's arity — from
// the compiled table, a registered query's atom, or the tuples already
// pending — is rejected here with ErrInvalidDelta, before it could poison
// the shared batch at flush time; the only other error is a closed store.
// The store keeps references to the delta's tuple slices — do not mutate
// them afterwards.
func (s *Store) Submit(delta *storage.Delta) error {
	if delta.Empty() {
		return nil
	}
	s.mu.Lock()
	_, err := s.enqueueLocked(delta)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.wake()
	return nil
}

// SubmitSync is Submit for a caller that waits for its tuples: it returns a
// version at which they are visible. It does not wake the flusher but
// flushes inline under flushMu, and only if no flush has committed its
// tuples yet, so concurrent callers share one flush. An empty delta waits
// for every earlier submit. Errors are Submit's (ErrInvalidDelta, ErrClosed)
// or, for anything else, a failed flush; a flush failed by ctx re-queues the
// batch and wakes the flusher to retry it. A batch whose new constants do not
// fit the dictionary fails with storage.ErrDictFull and is dropped, as any
// retry would fail the same way.
func (s *Store) SubmitSync(ctx context.Context, delta *storage.Delta) (uint64, error) {
	s.mu.Lock()
	seq, err := s.enqueueLocked(delta)
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if s.committedSeq < seq {
		if s.closed {
			return 0, ErrClosed
		}
		if err := s.flushSerialized(ctx); err != nil {
			return 0, err
		}
	}
	return s.version, nil
}

// enqueueLocked merges delta into the pending batch and returns its submit
// sequence number; an empty delta merges nothing and gets the number of the
// last delta merged. The caller holds mu.
func (s *Store) enqueueLocked(delta *storage.Delta) (uint64, error) {
	if s.closed {
		return 0, ErrClosed
	}
	if delta.Empty() {
		return s.submitSeq, nil
	}
	if err := s.validateLocked(delta); err != nil {
		return 0, err
	}
	s.stats.deltasSubmitted++
	s.stats.tuplesSubmitted += uint64(delta.Size())
	s.pending.Merge(delta)
	s.submitSeq++
	return s.submitSeq, nil
}

// wake hands the flusher a token unless one is already queued.
func (s *Store) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// validateLocked mirrors applyToTable's arity rules against the current
// snapshot plus the pending batch, so a bad delta is rejected at Submit time
// (where the submitter gets the error) instead of poisoning the coalesced
// batch at flush time (where concurrent submitters would lose their tuples
// too). A relation's expected arity comes from its compiled table, else from
// a registered query's atom over it (any other arity would fail that query's
// Rebind), else from the first pending or submitted insert creating it;
// deletes against a
// relation that stays absent are vacuous at any arity, exactly like Apply.
// An insert that first fixes an unknown relation's arity must also agree
// with any deletes already accepted into the pending batch as vacuous —
// Apply would check them against the freshly created relation, so the
// conflicting insert is the submission to reject.
func (s *Store) validateLocked(delta *storage.Delta) error {
	for _, rel := range delta.Relations() {
		arity, known := s.cdb.RelationArity(rel)
		fresh := false // arity unknown before this delta's own inserts
		if !known {
			// An absent relation read by a registered query must arrive with
			// the atom's arity — any other would fail that query's Rebind.
			if a, ok := s.relArity[rel]; ok {
				arity, known = a, true
			}
		}
		if !known {
			// Pending() may still list inserts a later delete tombstoned,
			// but every insert accepted into a relation of the batch passed
			// this same arity check, so any of them pins the right arity.
			if ts := s.pending.Pending().Insert[rel]; len(ts) > 0 {
				arity, known = len(ts[0]), true
			}
		}
		if !known {
			if ts := delta.Insert[rel]; len(ts) > 0 {
				arity, known, fresh = len(ts[0]), true, true
			}
		}
		for _, t := range delta.Insert[rel] {
			if len(t) != arity {
				return fmt.Errorf("%w: relation %s mixes arities %d and %d", ErrInvalidDelta, rel, arity, len(t))
			}
		}
		if !known {
			continue // deletes against an empty relation: vacuous
		}
		for _, t := range delta.Delete[rel] {
			if len(t) != arity {
				return fmt.Errorf("%w: relation %s delete has arity %d, want %d", ErrInvalidDelta, rel, len(t), arity)
			}
		}
		if fresh {
			for _, t := range s.pending.Pending().Delete[rel] {
				if len(t) != arity {
					return fmt.Errorf("%w: relation %s insert arity %d conflicts with a pending delete of arity %d", ErrInvalidDelta, rel, arity, len(t))
				}
			}
		}
	}
	return nil
}

// flusher is the background half of group commit: each wake flushes
// whatever is pending, so the deltas submitted during one flush go out
// together in the next.
func (s *Store) flusher() {
	defer close(s.doneCh)
	for {
		select {
		case <-s.closeCh:
			return
		case <-s.kick:
		}
		// Errors are recorded in Stats (a poison batch is dropped, see
		// Flush); the flusher itself must keep serving.
		_ = s.Flush(context.Background())
	}
}

// Flush applies the pending coalesced batch now: one CompiledDB.Apply, one
// Rebind per registered query, one notification per query whose result
// changed. A no-op when nothing is pending. On error the snapshot and every
// bound query are left exactly as they were and the error is recorded in
// Stats and returned; a transient failure (context cancellation mid-flush)
// re-queues the batch — merged with anything submitted in the meantime — so
// other submitters' coalesced tuples survive for the next flush, while a
// genuinely poison batch (an arity mismatch that slipped past Submit
// validation) is dropped so it cannot wedge the pipeline.
func (s *Store) Flush(ctx context.Context) error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.mu.Unlock()
	return s.flushSerialized(ctx)
}

// flushSerialized runs one take → stage → WAL append → commit cycle,
// committing at version+1. The caller holds flushMu; mu is taken only for
// the take and commit steps (and the error bookkeeping), never across engine
// work.
func (s *Store) flushSerialized(ctx context.Context) error {
	t0 := time.Now()
	s.mu.Lock()
	if s.pending.Empty() {
		s.mu.Unlock()
		return nil
	}
	batch := s.pending.Take()
	takenSeq := s.submitSeq
	s.mu.Unlock()
	version := s.version + 1 // version is stable under flushMu
	takeHold := time.Since(t0)
	fail := func(err error) error {
		s.mu.Lock()
		s.stats.flushErrors++
		s.stats.lastError = err.Error()
		s.mu.Unlock()
		return err
	}
	// restore re-queues the batch: the failure was transient (the flushing
	// caller's context, or I/O), not the batch's fault, so the tuples other
	// submitters coalesced into it must survive for the next flush. Submits
	// may have landed while the stage ran outside mu, so the batch is merged
	// back batch-first ahead of whatever accumulated since. Only a cancelled
	// caller wakes the flusher to retry, whose own context never cancels: a
	// retry of any other failure would meet it again at once, so that batch
	// waits for the next Submit, SubmitSync or Flush instead of spinning.
	restore := func(err error) error {
		s.mu.Lock()
		re := storage.NewCoalescer()
		re.Merge(batch)
		re.Merge(s.pending.Take())
		s.pending = re
		s.stats.flushErrors++
		s.stats.lastError = err.Error()
		s.mu.Unlock()
		if ctx.Err() != nil {
			s.wake()
		}
		return err
	}
	// stageFail classifies an engine-stage error: a cancelled context is
	// transient (the batch is innocent — re-queue it), anything else is
	// deterministic and would fail every retry (a poison batch that slipped
	// past Submit validation), so it is dropped with the error recorded —
	// restoring it would wedge every future flush.
	stageFail := func(err error) error {
		if ctx.Err() != nil {
			return restore(err)
		}
		return fail(err)
	}
	stageStart := time.Now()
	st, err := s.stage(ctx, batch, version)
	stageDur := time.Since(stageStart)
	if err != nil {
		return stageFail(err)
	}
	// Log-then-commit: once the batch is staged (so it can no longer fail),
	// persist it before any subscriber can observe the new version. Only
	// staged batches reach the log, so recovery replay never meets a poison
	// batch the live path dropped. An append failure is an I/O problem, not
	// the batch's fault — re-queue it like any transient error. flushMu keeps
	// appends in version order and strictly ahead of their commits.
	var walDur time.Duration
	if s.dur != nil {
		walStart := time.Now()
		if err := s.dur.appendDelta(st.version, batch); err != nil {
			return restore(err)
		}
		walDur = time.Since(walStart)
	}
	commitStart := time.Now()
	s.mu.Lock()
	s.commitLocked(st, true)
	s.committedSeq = takenSeq
	// One sample for both counters: sampling twice made commitNs and
	// lastCommitNs disagree for the same flush, with lastCommitNs also
	// absorbing the stats writes in between.
	commitDur := time.Since(commitStart)
	s.stats.flushes++
	s.stats.flushedTuples += uint64(batch.Size())
	s.stats.stageNs += uint64(stageDur.Nanoseconds())
	s.stats.commitNs += uint64(commitDur.Nanoseconds())
	s.stats.walNs += uint64(walDur.Nanoseconds())
	s.stats.lastStageNs = uint64(stageDur.Nanoseconds())
	s.stats.lastCommitNs = uint64(commitDur.Nanoseconds())
	s.stats.lastWalNs = uint64(walDur.Nanoseconds())
	s.stats.stagedQueries += uint64(len(st.next))
	hold := uint64((takeHold + time.Since(commitStart)).Nanoseconds())
	s.stats.lockHoldNs += hold
	if hold > s.stats.maxLockHoldNs {
		s.stats.maxLockHoldNs = hold
	}
	for _, q := range st.next {
		s.stats.diffRows += uint64(q.diffRows)
	}
	s.mu.Unlock()
	if s.dur != nil {
		s.dur.maybeCheckpoint(s)
	}
	return nil
}

// PendingTuples returns the coalesced pending batch's current tuple count.
func (s *Store) PendingTuples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending.Size()
}

// staged is one query's next state, computed against the candidate snapshot
// but not yet visible. note is the fully-decoded notification for the
// version being staged, nil when the diff was not computed or came out
// empty.
type staged struct {
	lq       *liveQuery
	bound    *engine.BoundQuery
	count    int64
	note     *Notification
	diffRows int
}

// stagedFlush is a fully-staged batch application: the successor snapshot,
// its version, and the next state of every query the batch reaches, in
// sorted-name order. Committing it cannot fail.
type stagedFlush struct {
	cdb     *engine.CompiledDB
	version uint64
	next    []staged
}

// stage computes the successor snapshot and the next state of every query the
// batch reaches — Apply, then Rebind, Count, DiffFrom and notification
// decoding per query reading a relation the batch lists — touching nothing
// observable: a mid-stage error (cancellation, arity mismatch against a
// query) must not leave half of them on the new snapshot. A query reading
// none of the batch's relations is not visited at all: its tables are the
// same pointers in the successor snapshot, so its bound state, count and
// (empty) diff carry over as they are, and a flush costs the queries it
// changes, not the registry. The caller holds flushMu and NOT mu: s.cdb, the
// readers index and each lq.bound/count are stable under flushMu alone (they
// only change under both locks), so a stage never takes mu at all. Watch
// admission also holds flushMu, so a subscriber is never admitted mid-stage:
// it sees its first notification on the next flush, never a torn one.
// Recovery replay shares this path so a replayed batch goes through the exact
// engine calls the original flush made.
//
// The queries are staged one after another in name order, with the context
// checked before each, so a cancelled flush stops at the next query and
// stageFail sees the flush's own context error.
func (s *Store) stage(ctx context.Context, batch *storage.Delta, version uint64) (stagedFlush, error) {
	if h := s.stageHook; h != nil {
		h()
	}
	ncdb, err := s.cdb.Apply(ctx, batch)
	if err != nil {
		return stagedFlush{}, err
	}
	s.stageSeq++
	var lqs []*liveQuery
	for _, rel := range batch.Relations() {
		for _, lq := range s.readers[rel] {
			if lq.stageMark != s.stageSeq {
				lq.stageMark = s.stageSeq
				lqs = append(lqs, lq)
			}
		}
	}
	slices.SortFunc(lqs, func(a, b *liveQuery) int { return strings.Compare(a.name, b.name) })
	next := make([]staged, len(lqs))
	for i, lq := range lqs {
		if err := ctx.Err(); err != nil {
			return stagedFlush{}, err
		}
		nb, err := lq.bound.Rebind(ctx, ncdb.Restrict(lq.rels))
		if err != nil {
			return stagedFlush{}, fmt.Errorf("rebind %s: %w", lq.name, err)
		}
		count, err := nb.Count(ctx)
		if err != nil {
			return stagedFlush{}, fmt.Errorf("count %s: %w", lq.name, err)
		}
		// Every staged query pays the diff, watched or not: the ring must
		// hold changes for watchers that have not connected yet.
		added, removed, err := nb.DiffFrom(ctx, lq.bound)
		if err != nil {
			return stagedFlush{}, fmt.Errorf("diff %s: %w", lq.name, err)
		}
		st := staged{lq: lq, bound: nb, count: count}
		if added.Len()+removed.Len() > 0 {
			st.diffRows = added.Len() + removed.Len()
			st.note = &Notification{
				Query:     lq.name,
				Version:   version,
				Count:     count,
				PrevCount: lq.count,
				Added:     decodeRows(added, nb.Dict()),
				Removed:   decodeRows(removed, nb.Dict()),
			}
		}
		next[i] = st
	}
	return stagedFlush{cdb: ncdb, version: version, next: next}, nil
}

// commitLocked makes a staged flush visible: snapshot swap, per-query state,
// broadcast rings, and — when fanout is set — subscriber wake-ups. The
// caller holds BOTH flushMu and mu; everything here is pointer swaps and
// ring bookkeeping, so the mu hold is O(staged queries + their subscribers),
// independent of the registry and of batch and result sizes. Recovery replay commits with fanout=false
// (there is nobody to notify yet, but the rings must fill so pre-crash
// cursors can resume).
func (s *Store) commitLocked(st stagedFlush, fanout bool) {
	s.cdb = st.cdb
	s.version = st.version
	for _, q := range st.next {
		q.lq.bound = q.bound
		q.lq.count = q.count
		if q.note == nil {
			continue // the batch was invisible to this query
		}
		s.broadcastLocked(q.lq, *q.note, fanout)
	}
}

// broadcastLocked publishes one notification: a single append to the
// query's shared ring — that append IS the whole fan-out, one slot per
// flush regardless of subscriber count — followed by a non-blocking wake
// per subscriber. Appending past capacity evicts the oldest entry: every
// live subscriber still behind it is charged the loss (surfacing as Lagged
// on its next delivery) and skipped ahead, and the resume floor advances.
// The entry is immutable once appended; subscribers copy it out on
// delivery. fanout=false (recovery replay) fills the ring without waking or
// counting — there is nobody subscribed yet. Called with BOTH flushMu and
// mu held.
func (s *Store) broadcastLocked(lq *liveQuery, n Notification, fanout bool) {
	if capacity := s.cfg.History; len(lq.ring) >= capacity {
		evict := len(lq.ring) - capacity + 1
		newStart := lq.ringStart + uint64(evict)
		if v := lq.ring[evict-1].Version; v > lq.histFloor {
			lq.histFloor = v
		}
		for _, sub := range lq.subs {
			if sub.cursor < newStart {
				d := newStart - sub.cursor
				sub.dropped += d
				sub.cursor = newStart
				s.stats.dropped += d
			}
		}
		// Drop the evicted entries off the front instead of shifting the
		// ring down: the append below then copies the ring only when it
		// outgrows its backing array, once per ~capacity flushes, not on
		// every one. Clearing lets their rows be collected meanwhile.
		clear(lq.ring[:evict])
		lq.ring = lq.ring[evict:]
		lq.ringStart = newStart
	}
	lq.ring = append(lq.ring, n)
	if fanout && len(lq.subs) > 0 {
		s.stats.notifications++
		for _, sub := range lq.subs {
			select {
			case sub.wake <- struct{}{}:
			default: // a wake is already queued
			}
		}
	}
}

// decodeRows renders a relation's rows as constant-name tuples.
func decodeRows(rel *engine.Relation, dict *engine.Dict) [][]string {
	if rel.Len() == 0 {
		return nil
	}
	out := make([][]string, rel.Len())
	for i := range out {
		row := rel.Row(i)
		tuple := make([]string, len(row))
		for j, v := range row {
			tuple[j] = dict.Name(v)
		}
		out[i] = tuple
	}
	return out
}

// Count returns the named query's current result count and the snapshot
// version it belongs to. O(1): the count is maintained incrementally.
func (s *Store) Count(name string) (int64, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lq, ok := s.queries[name]
	if !ok {
		return 0, 0, unknownQuery(name)
	}
	return lq.count, s.version, nil
}

// QueryInfo summarises one registered query.
type QueryInfo struct {
	Name    string   `json:"name"`
	Query   string   `json:"query"`
	Vars    []string `json:"vars"`
	Count   int64    `json:"count"`
	Version uint64   `json:"version"`
}

// Info returns the named query's summary.
func (s *Store) Info(name string) (QueryInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lq, ok := s.queries[name]
	if !ok {
		return QueryInfo{}, unknownQuery(name)
	}
	return QueryInfo{Name: lq.name, Query: lq.src, Vars: lq.bound.Vars(), Count: lq.count, Version: s.version}, nil
}

// Queries lists every registered query, sorted by name.
func (s *Store) Queries() []QueryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QueryInfo, 0, len(s.queries))
	for _, lq := range s.queries {
		out = append(out, QueryInfo{Name: lq.name, Query: lq.src, Vars: lq.bound.Vars(), Count: lq.count, Version: s.version})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Solutions streams up to limit solutions of the named query over its
// current snapshot (limit <= 0: all), decoded to constant names. Evaluation
// runs outside the store lock — a BoundQuery is immutable, so flushes moving
// the registry to the next snapshot never disturb a running enumeration.
func (s *Store) Solutions(ctx context.Context, name string, limit int) ([][]string, uint64, error) {
	s.mu.Lock()
	lq, ok := s.queries[name]
	if !ok {
		s.mu.Unlock()
		return nil, 0, unknownQuery(name)
	}
	bound, version := lq.bound, s.version
	s.mu.Unlock()
	var rows [][]string
	err := bound.Enumerate(ctx, func(sol engine.Solution) bool {
		rows = append(rows, sol.Strings())
		return limit <= 0 || len(rows) < limit
	})
	if err != nil {
		return nil, 0, err
	}
	return rows, version, nil
}

// Version returns the current snapshot version (1 for the initial compile,
// +1 per applied batch).
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Stats is a snapshot of the store's traffic and the engine behind it.
// TuplesSubmitted versus FlushedTuples is the coalescing win: tuples that
// cancelled or deduplicated inside a batch were never applied, and
// Engine.Rebinds counts one Rebind per query per batch — not per delta.
type Stats struct {
	Version         uint64     `json:"version"`
	Queries         int        `json:"queries"`
	Subscribers     int        `json:"subscribers"`
	PendingTuples   int        `json:"pending_tuples"`
	DeltasSubmitted uint64     `json:"deltas_submitted"`
	TuplesSubmitted uint64     `json:"tuples_submitted"`
	Flushes         uint64     `json:"flushes"`
	FlushedTuples   uint64     `json:"flushed_tuples"`
	Notifications   uint64     `json:"notifications"`
	Dropped         uint64     `json:"dropped"`
	FlushErrors     uint64     `json:"flush_errors"`
	LastError       string     `json:"last_error,omitempty"`
	Flush           FlushStats `json:"flush"`
	// Backpressure lists, per query with credit-controlled watch streams,
	// the explicit flow-control state those streams are in: how much credit
	// their consumers have outstanding, how many are parked right now
	// (undelivered changes waiting on credit), and how often a stalled
	// stream has resumed. Queries with no credited streams and no history of
	// stalls are omitted.
	Backpressure []QueryBackpressure `json:"backpressure,omitempty"`
	DB           storage.DBStats     `json:"db"`
	Engine       engine.Stats        `json:"engine"`
	// Durability is present only for stores created with Open.
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// QueryBackpressure is one query's credit-based flow-control state: the
// explicit per-stream protocol view of lag (parked streams waiting on
// consumer credit) that replaces silent drop-oldest as the first line of
// slow-watcher handling on the wire protocol.
type QueryBackpressure struct {
	Query string `json:"query"`
	// CreditedStreams is how many of the query's live subscriptions use
	// credit-based flow control.
	CreditedStreams int `json:"credited_streams"`
	// OutstandingCredit sums the undelivered credit across those streams.
	OutstandingCredit uint64 `json:"outstanding_credit"`
	// ParkedStreams counts streams with changes waiting that have exhausted
	// their credit — the consumer, not the server, is the bottleneck.
	ParkedStreams int `json:"parked_streams"`
	// Resumes counts park→grant recoveries over the query's lifetime
	// (resume-after-stall), including streams since cancelled.
	Resumes uint64 `json:"resumes"`
}

// FlushStats breaks a store's flushes into pipeline phases. The cumulative
// nanosecond counters divide by Stats.Flushes for means; the Last* values
// are the most recent flush. LockHoldNs is the store-mutex hold time of the
// flush path only (batch take + commit) — the flat-tail claim of the
// O(change) flush design is that MaxLockHoldNs stays O(staged queries +
// notification size) while StageNs carries all the data-dependent work.
// LockHoldNs and MaxLockHoldNs time mu only, not flushMu, so they leave out
// the flushMu holds of staging, of a registration's Bind and of Subscribe.
// StagedQueries counts the queries actually staged — those reading a
// relation of the flushed batch — cumulatively, so StagedQueries/Flushes is
// the mean number of queries a flush reaches.
type FlushStats struct {
	StageNs       uint64 `json:"stage_ns"`
	CommitNs      uint64 `json:"commit_ns"`
	WalNs         uint64 `json:"wal_ns"`
	LockHoldNs    uint64 `json:"lock_hold_ns"`
	LastStageNs   uint64 `json:"last_stage_ns"`
	LastCommitNs  uint64 `json:"last_commit_ns"`
	LastWalNs     uint64 `json:"last_wal_ns"`
	MaxLockHoldNs uint64 `json:"max_lock_hold_ns"`
	DiffRows      uint64 `json:"diff_rows"`
	StagedQueries uint64 `json:"staged_queries"`
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	subs := 0
	var bp []QueryBackpressure
	for _, lq := range s.queries {
		subs += len(lq.subs)
		q := QueryBackpressure{Query: lq.name, Resumes: lq.resumes}
		for _, sub := range lq.subs {
			if !sub.credited {
				continue
			}
			q.CreditedStreams++
			q.OutstandingCredit += sub.credit
			if sub.parked {
				q.ParkedStreams++
			}
		}
		if q.CreditedStreams > 0 || q.Resumes > 0 {
			bp = append(bp, q)
		}
	}
	sort.Slice(bp, func(i, j int) bool { return bp[i].Query < bp[j].Query })
	var dur *DurabilityStats
	if s.dur != nil {
		dur = s.dur.stats()
	}
	return Stats{
		Durability:      dur,
		Version:         s.version,
		Queries:         len(s.queries),
		Subscribers:     subs,
		PendingTuples:   s.pending.Size(),
		DeltasSubmitted: s.stats.deltasSubmitted,
		TuplesSubmitted: s.stats.tuplesSubmitted,
		Flushes:         s.stats.flushes,
		FlushedTuples:   s.stats.flushedTuples,
		Notifications:   s.stats.notifications,
		Dropped:         s.stats.dropped,
		FlushErrors:     s.stats.flushErrors,
		LastError:       s.stats.lastError,
		Flush: FlushStats{
			StageNs:       s.stats.stageNs,
			CommitNs:      s.stats.commitNs,
			WalNs:         s.stats.walNs,
			LockHoldNs:    s.stats.lockHoldNs,
			LastStageNs:   s.stats.lastStageNs,
			LastCommitNs:  s.stats.lastCommitNs,
			LastWalNs:     s.stats.lastWalNs,
			MaxLockHoldNs: s.stats.maxLockHoldNs,
			DiffRows:      s.stats.diffRows,
			StagedQueries: s.stats.stagedQueries,
		},
		Backpressure: bp,
		DB:           s.cdb.Stats(),
		Engine:       s.eng.Stats(),
	}
}

// Close flushes the pending batch, ends every subscription (pending
// notifications stay readable, then their streams report over) and stops the
// background flusher. The returned error is the final flush's, if any. Close
// is idempotent.
//
// Closing first marks the store closed under both locks — so no new submits,
// registrations or watches are admitted — then runs the final flush through
// the normal pipeline (flushSerialized does not itself check closed, exactly
// so this last drain can still commit). Subscribers receive that flush's
// notifications before their streams end. flushMu is released before
// waiting for the flusher goroutine, which may be blocked on it in a Flush
// that will then observe closed and bow out.
func (s *Store) Close() error {
	s.flushMu.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.flushMu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.flushSerialized(context.Background())
	if s.dur != nil {
		// Seal with a final checkpoint so the next Open replays nothing,
		// then release the log. A checkpoint failure is not worth masking
		// the flush error over — recovery replays the suffix either way.
		if cerr := s.dur.checkpoint(s); cerr != nil && err == nil {
			err = cerr
		}
		if cerr := s.dur.log.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.mu.Lock()
	for _, lq := range s.queries {
		for _, sub := range lq.subs {
			sub.closed = true
			sub.limit = lq.ringEnd() // the final flush's entries still drain
			close(sub.wake)
		}
		lq.subs = nil
	}
	s.mu.Unlock()
	s.flushMu.Unlock()
	close(s.closeCh)
	<-s.doneCh
	return err
}
