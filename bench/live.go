package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
	"d2cq/internal/live"
	"d2cq/internal/storage"
	"d2cq/internal/wal"
	"d2cq/internal/wire"
)

// liveSpec is what distinguishes the three live workloads.
type liveSpec struct {
	shapes    []shape
	readShare float64
	durable   bool    // WAL on the commit path (-data-dir) or none (-db)
	http      bool    // HTTP/JSON + SSE instead of the wire protocol
	rate      float64 // scheduled ops per second; 0 is one closed-loop caller
}

var liveSpecs = map[string]liveSpec{
	"flush.closed": {shapes: registry(16, 8, 8), readShare: flushReadShare},
	"serve.wire":   {shapes: registry(4, 2, 2), readShare: serveReadShare, durable: true, rate: serveRate},
	"serve.http":   {shapes: registry(4, 2, 2), readShare: serveReadShare, durable: true, rate: serveRate, http: true},
}

// Store settings of the two daemon modes, as flags for d2cqd and as the
// matching live.Config of the in-process traced store.
var (
	closedFlags = []string{"-max-batch", "1000000", "-max-latency", "1h"} // no timers: every flush is a sync submit's
	closedCfg   = live.Config{MaxBatch: 1000000, MaxLatency: time.Hour}
	serveFlags  = []string{"-fsync", "5ms", "-max-latency", "1ms"}
	serveCfg    = live.Config{MaxLatency: time.Millisecond}
)

const (
	serveFsync = 5 * time.Millisecond
	// genLateLimit invalidates an open-loop run whose generator fell this
	// far behind its schedule at the tail: its latencies would be the
	// generator's, not the system's.
	genLateLimit = 20 * time.Millisecond
	notifyGrace  = 5 * time.Second // wait for trailing notifications
)

// system is one instance of the system under test: a d2cqd child, or — in a
// traced wire run — the same store and wire server inside this process with
// the tracing wrappers at the two interface seams.
type system struct {
	daemon  *daemon
	dir     string
	store   *live.Store
	server  *wire.Server
	served  chan error
	backend *tracedBackend
	addr    string // wire address (HTTP address for an HTTP run)
}

func (s *system) stop() {
	if s.daemon != nil {
		s.daemon.stop()
	}
	if s.store != nil {
		s.store.Close()
		s.server.Close()
		<-s.served
	}
	removeScratch(s.dir)
}

// startSystem brings the system up over db (preloaded when not durable).
func startSystem(o options, spec liveSpec, db cq.Database, inproc bool, tr *tracer) (*system, error) {
	dir, err := scratchDir(o.outDir, "run-")
	if err != nil {
		return nil, err
	}
	s := &system{dir: dir}
	if !inproc {
		var args []string
		if spec.durable {
			args = append([]string{"-data-dir", filepath.Join(dir, "data")}, serveFlags...)
		} else {
			file := filepath.Join(dir, "preload.txt")
			if err := os.WriteFile(file, []byte(databaseText(db)), 0o644); err != nil {
				return nil, err
			}
			args = append([]string{"-db", file}, closedFlags...)
		}
		if s.daemon, err = startDaemon(o.d2cqd, args...); err != nil {
			removeScratch(dir)
			return nil, err
		}
		s.addr = s.daemon.wireAddr
		if spec.http {
			s.addr = s.daemon.httpAddr
		}
		return s, nil
	}
	ctx := context.Background()
	if spec.durable {
		fs, err := wal.NewFS(filepath.Join(dir, "data"))
		if err != nil {
			return nil, err
		}
		s.backend = &tracedBackend{Backend: fs, t: tr}
		s.store, err = live.Open(ctx, engine.NewEngine(), live.DurableConfig{
			Config: serveCfg, Backend: s.backend, SyncMode: wal.SyncInterval, SyncInterval: serveFsync})
		if err != nil {
			return nil, err
		}
	} else if s.store, err = live.NewStore(ctx, engine.NewEngine(), db, closedCfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.store.Close()
		return nil, err
	}
	s.addr = ln.Addr().String()
	s.server = wire.NewServer(tracedService{Service: s.store, t: tr}, wire.Options{})
	s.served = make(chan error, 1)
	go func() { s.served <- s.server.Serve(ln) }()
	return s, nil
}

// matcher pairs notifications with the submits that caused them.
type matcher struct {
	mu      sync.Mutex
	pending map[string]pendingNote
	notify  samples
}

type pendingNote struct {
	sched time.Time
	timed bool
}

func (m *matcher) expect(key string, sched time.Time, timed bool) {
	m.mu.Lock()
	m.pending[key] = pendingNote{sched, timed}
	m.mu.Unlock()
}

func (m *matcher) forget(key string) {
	m.mu.Lock()
	delete(m.pending, key)
	m.mu.Unlock()
}

// seen resolves one notification row; the first watcher to report it wins.
func (m *matcher) seen(key string, now time.Time) {
	m.mu.Lock()
	p, ok := m.pending[key]
	if ok {
		delete(m.pending, key)
	}
	m.mu.Unlock()
	if ok && p.timed {
		m.notify.add(now.Sub(p.sched))
	}
}

func (m *matcher) outstanding() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// watcherState folds one watch stream into what the oracle checks: the
// digest of everything added minus everything removed, the count chain, and
// whether the stream reported a gap. Only its own stream's goroutine writes
// it; the oracle reads it after the target is closed.
type watcherState struct {
	query     int
	acc       uint64
	notes     int
	firstPrev int64
	lastCount int64
	chainOK   bool
	lagged    bool
}

// liveEnv is one set-up live workload, ready for its timed phase.
type liveEnv struct {
	name     string
	spec     liveSpec
	o        options
	gen      *generator
	initial  cq.Database // the logical database before the first op
	sys      *system
	tgt      target
	tr       *tracer
	m        *matcher
	watchers []*watcherState
	watched  map[int]bool

	mu        sync.Mutex // guards the generator and the fields below
	submitted []op       // every submit sent, warm-up first
	warm      int        // how many of them are the warm-up
	seq       int64
	attempted int
	failed    int
	userBytes int64

	ack, read, late samples
}

// setupLive performs one full set-up: generate, start, load, register,
// attach watchers, warm up.
func setupLive(name string, o options, inproc bool, tr *tracer) (*liveEnv, error) {
	spec := liveSpecs[name]
	e := &liveEnv{name: name, spec: spec, o: o, tr: tr,
		m: &matcher{pending: map[string]pendingNote{}}, watched: map[int]bool{}}
	e.gen = newGenerator(o.seed, spec.shapes, spec.readShare)
	e.initial = e.gen.database()
	var err error
	if e.sys, err = startSystem(o, spec, e.initial, inproc, tr); err != nil {
		return nil, err
	}
	if err = e.connect(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *liveEnv) dial() (target, error) {
	if e.spec.http {
		return dialHTTP(e.sys.addr, e.senders()), nil
	}
	return dialWire(e.sys.addr)
}

// senders is the size of the fixed sender pool: nproc over the one wire
// connection, nproc-1 request connections beside the SSE stream over HTTP.
func (e *liveEnv) senders() int {
	n := runtime.NumCPU()
	if e.spec.http {
		n--
	}
	if e.spec.rate == 0 || n < 1 {
		n = 1
	}
	return n
}

func (e *liveEnv) connect() error {
	var err error
	if e.tgt, err = e.dial(); err != nil {
		return err
	}
	if e.spec.durable {
		// A durable daemon starts empty: bulk-load one relation per sync
		// submit, so the preload goes through the log like any other write.
		for _, rel := range sortedKeys(e.initial) {
			d := &storage.Delta{Insert: map[string][][]string{rel: e.initial[rel]}}
			if err := e.tgt.submit(d, true); err != nil {
				return fmt.Errorf("bulk load %s: %w", rel, err)
			}
		}
	}
	for _, q := range e.gen.queries {
		vars, _, err := e.tgt.register(q.name, q.text)
		if err != nil {
			return fmt.Errorf("register %s: %w", q.name, err)
		}
		if !slices.Equal(vars, q.vars) {
			return fmt.Errorf("register %s: result columns %v, generator expects %v", q.name, vars, q.vars)
		}
	}
	for _, qi := range e.watchPlan() {
		w := &watcherState{query: qi, chainOK: true}
		e.watchers = append(e.watchers, w)
		e.watched[qi] = true
		name := e.gen.queries[qi].name
		if err := e.tgt.watch(name, func(n live.Notification) { e.onNote(w, name, n) }); err != nil {
			return fmt.Errorf("watch %s: %w", name, err)
		}
	}
	// Warm-up, one flush per op so that no delete coalesces with its
	// re-insert.
	for _, o := range e.gen.sweep() {
		e.record(o)
		e.perform(o, -1, time.Now(), false, true)
	}
	e.warm = len(e.submitted)
	if !e.drain() {
		return fmt.Errorf("warm-up: %d submits were never notified", e.m.outstanding())
	}
	if e.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed", e.failed, e.attempted)
	}
	e.attempted = 0
	return nil
}

// watchPlan lists the query each watch stream attaches to.
func (e *liveEnv) watchPlan() []int {
	switch {
	case e.spec.http:
		return []int{0} // one SSE stream; notify is sampled on q0's submits
	case e.spec.rate == 0:
		plan := make([]int, len(e.spec.shapes))
		for i := range plan {
			plan[i] = i
		}
		return plan
	}
	rng := rand.New(rand.NewSource(e.o.seed ^ 0x77617463)) // apart from the op stream
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(e.spec.shapes)-1))
	plan := make([]int, serveWatchers)
	for i := range plan {
		plan[i] = int(z.Uint64())
	}
	return plan
}

func (e *liveEnv) onNote(w *watcherState, query string, n live.Notification) {
	now := time.Now()
	for _, r := range n.Added {
		w.acc += rowHash(r)
		e.m.seen(noteKey(query, true, r), now)
	}
	for _, r := range n.Removed {
		w.acc -= rowHash(r)
		e.m.seen(noteKey(query, false, r), now)
	}
	if w.notes == 0 {
		w.firstPrev = n.PrevCount
	} else if n.PrevCount != w.lastCount {
		w.chainOK = false
	}
	w.lastCount = n.Count
	w.notes++
	w.lagged = w.lagged || n.Lagged > 0
}

// drain waits for the notifications still owed; false when some never came.
func (e *liveEnv) drain() bool {
	deadline := time.Now().Add(notifyGrace)
	for e.m.outstanding() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// exec draws the next op and performs it. sched is the instant it was due:
// latencies are clocked from there, not from when the sender got to it.
func (e *liveEnv) exec(sched time.Time, timed bool) {
	e.mu.Lock()
	o := e.gen.next()
	seq := e.seq
	e.seq++
	if o.kind != opRead {
		e.record(o)
	}
	e.mu.Unlock()
	// One closed-loop caller flushes with every submit; the open loop
	// leaves flushing to the daemon's coalescing window.
	e.perform(o, seq, sched, timed, e.spec.rate == 0)
}

// record keeps a submit for the replay and counts its user bytes.
func (e *liveEnv) record(o op) {
	e.submitted = append(e.submitted, o)
	e.userBytes += int64(len(o.rel))
	for _, v := range o.tuple {
		e.userBytes += int64(len(v))
	}
}

func (e *liveEnv) perform(o op, seq int64, sched time.Time, timed, sync bool) {
	q := e.gen.queries[o.query]
	if timed {
		e.late.add(time.Since(sched))
	}
	failed := false
	if o.kind == opRead {
		id := e.tr.begin("client.read", -1, seq)
		rows, err := e.tgt.read(q.name, readLimit)
		now := time.Now()
		e.tr.end(id)
		failed = err != nil || len(rows) == 0 || len(rows) > readLimit
		for _, r := range rows {
			failed = failed || len(r) != len(q.vars)
		}
		if !failed && timed {
			e.read.add(now.Sub(sched))
		}
	} else {
		key := noteKey(q.name, o.kind == opInsert, o.row)
		if e.watched[o.query] {
			e.m.expect(key, sched, timed)
		}
		tk := tupleKey(o.rel, o.tuple)
		id := e.tr.begin("client.submit", -1, seq)
		e.tr.link(tk, id)
		err := e.tgt.submit(o.delta(), sync)
		now := time.Now()
		e.tr.end(id)
		e.tr.unlink(tk)
		if failed = err != nil; failed {
			e.m.forget(key)
		} else if timed {
			e.ack.add(now.Sub(sched))
		}
	}
	e.mu.Lock()
	e.attempted++
	if failed {
		e.failed++
	}
	e.mu.Unlock()
}

// phase is what one timed phase measured.
type phase struct {
	elapsed          time.Duration
	ops              int
	before, after    live.Stats
	wireBefore, wire wire.ServerStats
	cpu              time.Duration // daemon CPU time over the phase
	rssMB            float64
}

// timedPhase runs the workload's loop for the given time: back to back from
// one caller, or on the open-loop schedule from the fixed sender pool.
func (e *liveEnv) timedPhase(seconds float64) (*phase, error) {
	p := &phase{}
	var err error
	if p.before, p.wireBefore, err = e.tgt.stats(); err != nil {
		return nil, err
	}
	var use0 procUsage
	if e.sys.daemon != nil {
		if use0, err = e.sys.daemon.usage(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	if e.spec.rate == 0 {
		for time.Since(start).Seconds() < seconds {
			e.exec(time.Now(), true)
			p.ops++
		}
	} else {
		total := int(e.spec.rate * seconds)
		interval := time.Duration(float64(time.Second) / e.spec.rate)
		var next int
		var slot sync.Mutex
		var wg sync.WaitGroup
		for s := 0; s < e.senders(); s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					slot.Lock()
					k := next
					next++
					slot.Unlock()
					if k >= total {
						return
					}
					sched := start.Add(time.Duration(k) * interval)
					time.Sleep(time.Until(sched))
					e.exec(sched, true)
				}
			}()
		}
		wg.Wait()
		p.ops = total
	}
	p.elapsed = time.Since(start)
	if !e.drain() {
		e.mu.Lock()
		e.failed += e.m.outstanding() // acked but never notified
		e.mu.Unlock()
	}
	if p.after, p.wire, err = e.tgt.stats(); err != nil {
		return nil, err
	}
	if e.sys.daemon != nil {
		use1, err := e.sys.daemon.usage()
		if err != nil {
			return nil, err
		}
		p.cpu, p.rssMB = use1.cpu-use0.cpu, use1.rssMB
	}
	return p, nil
}

// userMetrics stores the phase's end-to-end metrics.
func (e *liveEnv) userMetrics(p *phase, out *outcome) {
	out.set("ops_per_s", float64(p.ops)/p.elapsed.Seconds())
	out.set("write_p50_ms", ms(p50(e.ack.sorted())))
	out.set("answer_p50_ms", ms(p50(e.m.notify.sorted())))
	out.set("read_p50_ms", ms(p50(e.read.sorted())))
}

// verify is the oracle for a live workload: the system's final answers, and
// every gap-free watcher's reconstruction of them, against a from-scratch
// reference over the generator's logical database. Each comparison counts as
// one attempted check.
func (e *liveEnv) verify(ctx context.Context, out *outcome) error {
	final, err := reference(ctx, e.gen.database(), e.gen.queries)
	if err != nil {
		return err
	}
	before, err := reference(ctx, e.initial, e.gen.queries)
	if err != nil {
		return err
	}
	check := func(ok bool, format string, args ...any) {
		e.attempted++
		if !ok {
			e.failed++
			out.notef("MISMATCH "+format, args...)
		}
	}
	for _, q := range e.gen.queries {
		rows, err := e.tgt.read(q.name, 0)
		if err != nil {
			return fmt.Errorf("final read %s: %w", q.name, err)
		}
		got, want := rowsAnswer(rows), final[q.name]
		check(got == want, "%s: system has %d rows (digest %x), reference %d (%x)", q.name, got.count, got.hash, want.count, want.hash)
	}
	e.tgt.close() // ends the watch goroutines: their states are final now
	e.tgt = nil
	for i, w := range e.watchers {
		if w.lagged {
			continue // a reported gap: the watcher was told to re-read
		}
		name := e.gen.queries[w.query].name
		b, f := before[name], final[name]
		ok := w.chainOK && b.hash+w.acc == f.hash
		if w.notes > 0 {
			ok = ok && w.firstPrev == b.count && w.lastCount == f.count
		}
		check(ok, "watcher %d on %s: stream of %d changes does not rebuild the final result", i, name, w.notes)
	}
	return nil
}

// recover is the durability check: quiesce, kill -9, restart on the same
// directory, and require the exact version and per-query counts back. It
// returns the restart time and how many log records were replayed.
func (e *liveEnv) recover(out *outcome) (time.Duration, uint64, error) {
	e.mu.Lock()
	o := e.gen.next()
	for o.kind == opRead {
		o = e.gen.next()
	}
	e.mu.Unlock()
	e.perform(o, -1, time.Now(), false, true) // sync: everything before it is committed
	e.drain()
	st, _, err := e.tgt.stats()
	if err != nil {
		return 0, 0, err
	}
	counts := map[string]int64{}
	for _, q := range e.gen.queries {
		if _, counts[q.name], err = e.tgt.register(q.name, q.text); err != nil {
			return 0, 0, err
		}
	}
	e.tgt.close()
	// The fsync interval is 5ms: give the last append time to reach the
	// disk, as an acknowledged write is entitled to, then crash.
	time.Sleep(4 * serveFsync)
	e.sys.daemon.kill()
	start := time.Now()
	if e.sys.daemon, err = startDaemon(e.o.d2cqd, append([]string{"-data-dir", filepath.Join(e.sys.dir, "data")}, serveFlags...)...); err != nil {
		return 0, 0, fmt.Errorf("restart after kill -9: %w", err)
	}
	took := time.Since(start)
	e.sys.addr = e.sys.daemon.wireAddr
	if e.spec.http {
		e.sys.addr = e.sys.daemon.httpAddr
	}
	if e.tgt, err = e.dial(); err != nil {
		return 0, 0, err
	}
	after, _, err := e.tgt.stats()
	if err != nil {
		return 0, 0, err
	}
	e.attempted++
	if after.Version != st.Version {
		e.failed++
		out.notef("MISMATCH recovery: version %d before the crash, %d after", st.Version, after.Version)
	}
	for _, q := range e.gen.queries {
		_, c, err := e.tgt.register(q.name, q.text)
		if err != nil {
			return 0, 0, err
		}
		e.attempted++
		if c != counts[q.name] {
			e.failed++
			out.notef("MISMATCH recovery: %s had %d rows before the crash, %d after", q.name, counts[q.name], c)
		}
	}
	var replayed uint64
	if after.Durability != nil {
		replayed = after.Durability.ReplayedRecords
	}
	return took, replayed, nil
}

func (e *liveEnv) close() {
	if e.tgt != nil {
		e.tgt.close()
		e.tgt = nil
	}
	if e.sys != nil {
		e.sys.stop()
		e.sys = nil
	}
}

// runLive is a live workload against the daemon: set-up setupRuns times
// (the median is setup_s), one timed phase on the last, then the oracle and,
// for serve.wire, the crash-recovery check.
func runLive(ctx context.Context, name string, o options) (*outcome, error) {
	out := newOutcome()
	if o.trace {
		return out, runLiveTraced(ctx, name, o, out)
	}
	var e *liveEnv
	var setups []time.Duration
	for i := 0; i < o.setupRuns(); i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setupLive(name, o, false, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer e.close()
	out.set("setup_s", medianDur(setups).Seconds())
	p, err := e.timedPhase(o.seconds)
	if err != nil {
		return nil, err
	}
	e.userMetrics(p, out)
	if err := e.finish(ctx, out); err != nil {
		return nil, err
	}
	return out, nil
}

// finish runs the checks that follow a daemon phase and moves the tallies
// into the outcome.
func (e *liveEnv) finish(ctx context.Context, out *outcome) error {
	if late, _ := tailRule(e.late.sorted()); e.spec.rate > 0 && late > genLateLimit {
		out.invalid = fmt.Sprintf("generator ran %.1f ms late at the tail (limit %.0f ms)", ms(late), ms(genLateLimit))
	}
	if e.name == "serve.wire" && e.sys.daemon != nil {
		took, replayed, err := e.recover(out)
		if err != nil {
			return err
		}
		out.set("wal.recover_ms", ms(took))
		out.set("wal.replayed_records", float64(replayed))
	}
	if err := e.verify(ctx, out); err != nil {
		return err
	}
	out.attempted += e.attempted
	out.failed += e.failed
	return nil
}
