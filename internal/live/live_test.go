package live

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
	"d2cq/internal/storage"
)

// The Watch differential harness: a Store driven through a random delta
// stream must emit, per flush, exactly the EnumerateAll diff between the two
// consecutive snapshots — for every query shape of the PR-3 incremental
// harness — and stay silent on flushes its query absorbs. The shapes mirror
// internal/engine/incremental_test.go (the schema is a superset of the
// query's relations, so some deltas are invisible).

type watchShape struct {
	name   string
	query  string
	rels   map[string]int
	consts int // how many of the constants c0 … c4 the stream draws from (0: all five)
}

var watchShapes = []watchShape{
	{name: "path", query: "R(a,b), S(b,c), T(c,d)", rels: map[string]int{"R": 2, "S": 2, "T": 2, "Zed": 2}},
	{name: "triangle", query: "E(x,y), F(y,z), G(z,x)", rels: map[string]int{"E": 2, "F": 2, "G": 2, "Zed": 1}},
	{name: "selfjoin", query: "E(x,y), E(y,z)", rels: map[string]int{"E": 2, "Zed": 2}},
	{name: "const-repeat", query: "R(x,x), S(x,y), T(y,'c0')", rels: map[string]int{"R": 2, "S": 2, "T": 2}},
	{name: "star", query: "R(x,y), S(x,z), T(x,w)", rels: map[string]int{"R": 2, "S": 2, "T": 2}},
	{name: "ground", query: "E('c0','c1'), F('c1')", rels: map[string]int{"E": 2, "F": 1}, consts: 2},
}

// genDelta draws one random delta: mostly single-op, sometimes a small
// batch, inserts slightly favoured (the constant pool is small, so deletes
// hit real tuples often).
func genDelta(rng *rand.Rand, sh watchShape, relNames []string) *storage.Delta {
	nOps := 1
	if rng.Intn(10) == 0 {
		nOps = 2 + rng.Intn(2)
	}
	consts := []string{"c0", "c1", "c2", "c3", "c4"}[:cmp.Or(sh.consts, 5)]
	d := storage.NewDelta()
	for i := 0; i < nOps; i++ {
		rel := relNames[rng.Intn(len(relNames))]
		tuple := make([]string, sh.rels[rel])
		for j := range tuple {
			tuple[j] = consts[rng.Intn(len(consts))]
		}
		if rng.Intn(10) < 6 {
			d.Add(rel, tuple...)
		} else {
			d.Remove(rel, tuple...)
		}
	}
	return d
}

// flushBatch submits deltas and flushes them as exactly one batch: it holds
// flushMu across the submits, so the flusher they wake cannot split them.
func flushBatch(t testing.TB, s *Store, deltas ...*storage.Delta) {
	t.Helper()
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for _, d := range deltas {
		if err := s.Submit(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.flushSerialized(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// stopFlusher ends s's background flusher, so an async Submit stays pending
// until the test flushes it: for tests of what happens against a pending
// batch, which group commit would otherwise flush at once. Close still works.
func stopFlusher(s *Store) {
	close(s.closeCh)
	<-s.doneCh
	s.closeCh = make(chan struct{})
}

// awaitNext blocks for the subscription's next notification with a test
// timeout; the stream ending (or the timeout) is fatal.
func awaitNext(t *testing.T, sub *Subscription) Notification {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n, ok := sub.Next(ctx)
	if !ok {
		t.Fatal("subscription yielded no notification within 5s")
	}
	return n
}

// holdFirstStage makes s's first stage wait until release is called.
// started waits for that stage to begin, failing the test after 5s. The
// test's cleanup releases the stage too, so a failing test cannot leave
// Close waiting on it; register the cleanup that closes s before this one.
func holdFirstStage(t *testing.T, s *Store) (started, release func()) {
	entered, hold := make(chan struct{}), make(chan struct{})
	var first, once sync.Once
	s.stageHook = func() {
		first.Do(func() {
			close(entered)
			<-hold
		})
	}
	release = func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)
	started = func() {
		t.Helper()
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("no stage started within 5s")
		}
	}
	return started, release
}

// resultSet renders a query's full answer over a plain database as a set of
// decoded row keys, via a reference engine that shares nothing with the
// store under test.
func resultSet(t *testing.T, prep *engine.PreparedQuery, db cq.Database) map[string]bool {
	t.Helper()
	rel, dict, err := prep.EnumerateAll(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, rel.Len())
	for i := 0; i < rel.Len(); i++ {
		parts := make([]string, len(rel.Row(i)))
		for j, v := range rel.Row(i) {
			parts[j] = dict.Name(v)
		}
		out[strings.Join(parts, "\x00")] = true
	}
	return out
}

func rowKeys(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x00")
	}
	sort.Strings(out)
	return out
}

func setKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestWatchDifferential replays a ≥100-step random delta stream per query
// shape, one flush per delta, and asserts every notification carries exactly
// the reference diff between the consecutive snapshots (and that absorbed
// flushes are silent) — so the concatenated notification stream reconstructs
// the full snapshot-to-snapshot evolution. Each shape runs two streams: the
// one drawn from -watchseed and a fixed one (seed 42), one subtest each.
func TestWatchDifferential(t *testing.T) {
	for _, sh := range watchShapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{*watchSeed, 42} {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					runWatchDifferential(t, sh, seed)
				})
			}
		})
	}
}

// watchSeed reproduces a reported divergence:
// go test ./internal/live -run TestWatchDifferential -watchseed N
var watchSeed = flag.Int64("watchseed", 7, "seed of the watch differential test's first stream")

// runWatchDifferential drives one Store through a 100-step random delta
// stream drawn from seed, flushing after every delta, and checks each
// round's notification, Version and Count against a reference engine over a
// mirrored plain database.
func runWatchDifferential(t *testing.T, sh watchShape, seed int64) {
	t.Helper()
	const steps = 100
	ctx := context.Background()
	q, err := cq.ParseQuery(sh.query)
	if err != nil {
		t.Fatal(err)
	}
	relNames := make([]string, 0, len(sh.rels))
	for r := range sh.rels {
		relNames = append(relNames, r)
	}
	slices.Sort(relNames)
	rng := rand.New(rand.NewSource(seed))
	mirror := cq.Database{}
	for i := 0; i < 4; i++ {
		rel := relNames[rng.Intn(len(relNames))]
		tuple := make([]string, sh.rels[rel])
		for j := range tuple {
			tuple[j] = fmt.Sprintf("c%d", rng.Intn(cmp.Or(sh.consts, 5)))
		}
		mirror.Add(rel, tuple...)
	}
	store, err := NewStore(ctx, engine.NewEngine(), mirror, Config{History: steps + 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Register(ctx, "q", q); err != nil {
		t.Fatal(err)
	}
	sub, err := store.Watch("q")
	if err != nil {
		t.Fatal(err)
	}
	refEng := engine.NewEngine()
	prep, err := refEng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	prev := resultSet(t, prep, mirror)
	version := store.Version()
	for s := 0; s < steps; s++ {
		delta := genDelta(rng, sh, relNames)
		if err := store.Submit(delta); err != nil {
			t.Fatalf("step %d: Submit: %v", s, err)
		}
		if err := store.Flush(ctx); err != nil {
			t.Fatalf("step %d: Flush: %v", s, err)
		}
		version++
		if got := store.Version(); got != version {
			t.Fatalf("step %d: Version = %d, want %d", s, got, version)
		}
		delta.ApplyToDatabase(mirror)
		cur := resultSet(t, prep, mirror)
		var expAdd, expRem []string
		for k := range cur {
			if !prev[k] {
				expAdd = append(expAdd, k)
			}
		}
		for k := range prev {
			if !cur[k] {
				expRem = append(expRem, k)
			}
		}
		sort.Strings(expAdd)
		sort.Strings(expRem)
		if len(expAdd) == 0 && len(expRem) == 0 {
			if n, ok := sub.TryNext(); ok {
				t.Fatalf("step %d: unchanged result but notification %+v", s, n)
			}
		} else {
			n, ok := sub.TryNext()
			if !ok {
				t.Fatalf("step %d: result changed (+%d/-%d) but no notification", s, len(expAdd), len(expRem))
			}
			if n.Query != "q" || n.Version != version {
				t.Fatalf("step %d: notification query/version %s/%d, want q/%d", s, n.Query, n.Version, version)
			}
			if n.Lagged != 0 {
				t.Fatalf("step %d: unexpected lag %d with an oversized buffer", s, n.Lagged)
			}
			if int(n.Count) != len(cur) || int(n.PrevCount) != len(prev) {
				t.Fatalf("step %d: counts %d←%d, want %d←%d", s, n.Count, n.PrevCount, len(cur), len(prev))
			}
			if got := rowKeys(n.Added); !slices.Equal(got, expAdd) {
				t.Fatalf("step %d: added %v, want %v", s, got, expAdd)
			}
			if got := rowKeys(n.Removed); !slices.Equal(got, expRem) {
				t.Fatalf("step %d: removed %v, want %v", s, got, expRem)
			}
		}
		// Count agrees with the reference at every round.
		if n, _, err := store.Count("q"); err != nil || int(n) != len(cur) {
			t.Fatalf("step %d: Count = %d, %v; want %d", s, n, err, len(cur))
		}
		prev = cur
	}
	// The store's final state agrees with the reference too.
	rows, _, err := store.Solutions(ctx, "q", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowKeys(rows); !slices.Equal(got, setKeys(prev)) {
		t.Fatalf("final solutions %v, want %v", got, setKeys(prev))
	}
}

// TestCoalescedIngestionIdentical drives the same delta stream through a
// per-delta store and a coalescing store (one batch per 8 submits) and
// asserts byte-identical final results with measurably fewer Rebinds — the
// acceptance contract of coalesced ingestion. A flush rebinds the
// query only when its batch lists a relation the query reads (Zed is noise),
// so the expected counts are the flushes that do.
func TestCoalescedIngestionIdentical(t *testing.T) {
	ctx := context.Background()
	sh := watchShapes[0] // path query
	q, err := cq.ParseQuery(sh.query)
	if err != nil {
		t.Fatal(err)
	}
	relNames := make([]string, 0, len(sh.rels))
	for r := range sh.rels {
		relNames = append(relNames, r)
	}
	slices.Sort(relNames)
	initial := cq.Database{}
	initial.Add("R", "c0", "c1")
	initial.Add("S", "c1", "c2")
	initial.Add("T", "c2", "c3")

	engA, engB := engine.NewEngine(), engine.NewEngine()
	storeA, err := NewStore(ctx, engA, initial, Config{History: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer storeA.Close()
	storeB, err := NewStore(ctx, engB, initial, Config{History: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer storeB.Close()
	for _, s := range []*Store{storeA, storeB} {
		if err := s.Register(ctx, "q", q); err != nil {
			t.Fatal(err)
		}
	}
	const steps, batch = 96, 8
	rng := rand.New(rand.NewSource(11))
	reaches := func(d *storage.Delta) bool {
		return slices.ContainsFunc(d.Relations(), func(rel string) bool { return rel != "Zed" })
	}
	var wantA, wantB uint64
	batchReaches := false
	var batchB []*storage.Delta
	for s := 0; s < steps; s++ {
		delta := genDelta(rng, sh, relNames)
		if reaches(delta) {
			wantA++
			batchReaches = true
		}
		if (s+1)%batch == 0 && batchReaches {
			wantB++
			batchReaches = false
		}
		flushBatch(t, storeA, cloneDelta(delta))
		if batchB = append(batchB, delta); len(batchB) == batch {
			flushBatch(t, storeB, batchB...)
			batchB = nil
		}
	}
	rowsA, _, err := storeA.Solutions(ctx, "q", 0)
	if err != nil {
		t.Fatal(err)
	}
	rowsB, _, err := storeB.Solutions(ctx, "q", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rowKeys(rowsA), rowKeys(rowsB)) {
		t.Fatalf("coalesced results differ: per-delta %v, coalesced %v", rowKeys(rowsA), rowKeys(rowsB))
	}
	ra, rb := engA.Stats().Rebinds, engB.Stats().Rebinds
	if ra != wantA || wantA < steps/2 {
		t.Fatalf("per-delta store rebinds = %d, want %d (of %d steps)", ra, wantA, steps)
	}
	if rb != wantB || wantB > steps/batch {
		t.Fatalf("coalesced store rebinds = %d, want %d", rb, wantB)
	}
	sb := storeB.Stats()
	if sb.FlushedTuples > sb.TuplesSubmitted {
		t.Fatalf("coalescing grew the applied tuples: %d flushed > %d submitted", sb.FlushedTuples, sb.TuplesSubmitted)
	}
}

// TestSlowSubscriberLag: a subscriber that never drains loses notifications
// without ever blocking a flush, and the loss surfaces as Lagged on the next
// delivered notification. The shared broadcast ring retains the NEWEST
// entries — a lagging cursor falls off the tail, so the oldest unread
// notifications are the ones lost and the consumer resumes at the freshest
// retained state.
func TestSlowSubscriberLag(t *testing.T) {
	ctx := context.Background()
	db := cq.Database{}
	db.Add("R", "a")
	store, err := NewStore(ctx, nil, db, Config{History: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	q, err := cq.ParseQuery("R(x)")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Register(ctx, "q", q); err != nil {
		t.Fatal(err)
	}
	sub, err := store.Watch("q")
	if err != nil {
		t.Fatal(err)
	}
	base := store.Version() - 1 // the store starts at version base+1
	change := func(i int) {
		t.Helper()
		if err := store.Submit(storage.NewDelta().Add("R", fmt.Sprintf("x%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := store.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Four changing flushes (versions base+2..base+5) against a 1-slot ring:
	// only the newest survives, the three older ones fell off the tail unread.
	for i := 0; i < 4; i++ {
		change(i)
	}
	n1, ok := sub.TryNext()
	if !ok {
		t.Fatal("no notification pending after four changes")
	}
	if n1.Lagged != 3 || n1.Version != base+5 {
		t.Fatalf("first delivery lag/version = %d/%d, want 3/%d (newest retained, drops surfaced)", n1.Lagged, n1.Version, base+5)
	}
	if _, ok := sub.TryNext(); ok {
		t.Fatal("ring drained but another notification was pending")
	}
	// Caught up: the next change is delivered with no gap.
	change(4)
	n2, ok := sub.TryNext()
	if !ok {
		t.Fatal("no notification after catching up")
	}
	if n2.Lagged != 0 || n2.Version != base+6 {
		t.Fatalf("post-catch-up lag/version = %d/%d, want 0/%d", n2.Lagged, n2.Version, base+6)
	}
	if st := store.Stats(); st.Dropped != 3 {
		t.Fatalf("Stats.Dropped = %d, want 3", st.Dropped)
	}
}

// awaitGoroutines waits for the goroutine count to drop back to the
// baseline (with slack for the runtime's own bookkeeping), retrying because
// teardown is asynchronous.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchCancelAndCloseTeardown: Cancel ends the subscription's stream
// and unregisters it; Close flushes, ends every remaining stream (drained
// first, then over) and stops the background flusher without leaking
// goroutines; every operation on the closed store reports ErrClosed.
func TestWatchCancelAndCloseTeardown(t *testing.T) {
	ctx := context.Background()
	baseline := runtime.NumGoroutine()
	db := cq.Database{}
	db.Add("R", "a")
	store, err := NewStore(ctx, nil, db, Config{History: 4})
	if err != nil {
		t.Fatal(err)
	}
	q, err := cq.ParseQuery("R(x)")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Register(ctx, "q", q); err != nil {
		t.Fatal(err)
	}
	sub1, err := store.Watch("q")
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := store.Watch("q")
	if err != nil {
		t.Fatal(err)
	}
	sub1.Cancel()
	sub1.Cancel() // idempotent
	if _, ok := sub1.Next(ctx); ok {
		t.Fatal("cancelled subscription still delivers")
	}
	// A flush after the cancel reaches only the live subscriber.
	if err := store.Submit(storage.NewDelta().Add("R", "b")); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n := awaitNext(t, sub2); len(n.Added) != 1 {
		t.Fatalf("live subscriber got %+v, want one added row", n)
	}
	// …and the cancelled one saw nothing of it.
	if n, ok := sub1.TryNext(); ok {
		t.Fatalf("cancelled subscription received a post-cancel flush: %+v", n)
	}
	// Close flushes the still-pending batch before tearing down…
	if err := store.Submit(storage.NewDelta().Add("R", "c")); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if n, ok := sub2.Next(ctx); !ok || len(n.Added) != 1 {
		t.Fatalf("close-time flush notification = %+v (ok=%v), want one added row", n, ok)
	}
	if _, ok := sub2.Next(ctx); ok {
		t.Fatal("subscription still delivering after Close drained")
	}
	// …and every later operation reports the closed store.
	if err := store.Submit(storage.NewDelta().Add("R", "d")); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := store.Flush(ctx); err != ErrClosed {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	if _, err := store.Watch("q"); err != ErrClosed {
		t.Fatalf("Watch after Close = %v, want ErrClosed", err)
	}
	if err := store.Register(ctx, "q2", q); err != ErrClosed {
		t.Fatalf("Register after Close = %v, want ErrClosed", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	awaitGoroutines(t, baseline)
}

// TestAutomaticFlushTriggers: group commit flushes without a manual Flush.
// The batch size follows the load: the deltas submitted while one flush runs
// go out together in exactly one more. And nothing waits out a deadline: a
// lone submit to an idle store is flushed at once, whatever the deprecated
// MaxBatch and MaxLatency say.
func TestAutomaticFlushTriggers(t *testing.T) {
	ctx := context.Background()
	watched := func(t *testing.T, cfg Config) (*Store, *Subscription) {
		t.Helper()
		s, err := NewStore(ctx, nil, cq.Database{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if err := s.Register(ctx, "q", mustQuery(t, "R(x)")); err != nil {
			t.Fatal(err)
		}
		sub, err := s.Watch("q")
		if err != nil {
			t.Fatal(err)
		}
		return s, sub
	}
	submit := func(t *testing.T, s *Store, v string) {
		t.Helper()
		if err := s.Submit(storage.NewDelta().Add("R", v)); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("size", func(t *testing.T) {
		s, sub := watched(t, Config{History: 4})
		base := s.Version() - 1 // the store starts at version base+1
		started, release := holdFirstStage(t, s)
		submit(t, s, "first")
		started() // flush 1 is mid-stage
		for i := 0; i < 5; i++ {
			submit(t, s, fmt.Sprint("b", i))
		}
		release()
		if n := awaitNext(t, sub); n.Version != base+2 || len(n.Added) != 1 {
			t.Fatalf("flush 1 delivered %+v, want version %d with one added row", n, base+2)
		}
		if n := awaitNext(t, sub); n.Version != base+3 || len(n.Added) != 5 {
			t.Fatalf("flush 2 delivered %+v, want version %d with the 5 rows submitted during flush 1", n, base+3)
		}
		if st := s.Stats(); st.Flushes != 2 || st.FlushedTuples != 6 {
			t.Fatalf("%d flushes of %d tuples, want 2 of 6", st.Flushes, st.FlushedTuples)
		}
	})
	t.Run("latency", func(t *testing.T) {
		s, sub := watched(t, Config{MaxBatch: 1 << 30, MaxLatency: time.Hour, History: 4})
		submit(t, s, "b")
		if n := awaitNext(t, sub); len(n.Added) != 1 {
			t.Fatalf("group commit delivered %+v, want one added row", n)
		}
	})
}

// TestConcurrentSubmitAutoFlush hammers Submit from many goroutines while
// only group commit flushes (run under -race this is the submit path
// racing the flusher): disjoint insert-only streams must each land exactly
// once, watch versions must strictly increase, the concatenated diffs must
// sum to the final count, and no flush may fail.
func TestConcurrentSubmitAutoFlush(t *testing.T) {
	ctx := context.Background()
	const (
		goroutines = 6
		perG       = 40
	)
	s, err := NewStore(ctx, nil, cq.Database{}, Config{History: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register(ctx, "k", mustQuery(t, "K(x,y)")); err != nil {
		t.Fatal(err)
	}
	sub, err := s.Watch("k")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d := storage.NewDelta().
					Add("K", fmt.Sprintf("g%d-%d", g, i), "x").
					Add("L", fmt.Sprintf("g%d-%d", g, i), "noise")
				if err := s.Submit(d); err != nil {
					t.Errorf("goroutine %d: Submit: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	want := int64(goroutines * perG)
	deadline := time.Now().Add(10 * time.Second)
	for {
		cnt, _, err := s.Count("k")
		if err != nil {
			t.Fatal(err)
		}
		if cnt == want && s.PendingTuples() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("count %d pending %d after 10s of automatic flushes, want %d/0", cnt, s.PendingTuples(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var last uint64
	total := 0
	seen := map[string]bool{}
	for _, note := range drain(sub) {
		if note.Version <= last {
			t.Fatalf("watch versions not strictly increasing: %d after %d", note.Version, last)
		}
		if note.Lagged != 0 {
			t.Fatalf("notification at version %d lagged %d with an oversized buffer", note.Version, note.Lagged)
		}
		last = note.Version
		total += len(note.Added) - len(note.Removed)
		for _, row := range note.Added {
			k := strings.Join(row, "\x00")
			if seen[k] {
				t.Fatalf("row %v added twice", row)
			}
			seen[k] = true
		}
	}
	if total != int(want) || len(seen) != int(want) {
		t.Fatalf("concatenated watch diffs sum to %d rows (%d distinct added), want %d", total, len(seen), want)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if k := fmt.Sprintf("g%d-%d\x00x", g, i); !seen[k] {
				t.Fatalf("submitted tuple %q never reached the watcher", k)
			}
		}
	}
	st := s.Stats()
	if st.FlushErrors != 0 {
		t.Fatalf("flush errors under concurrent load: %d (%s)", st.FlushErrors, st.LastError)
	}
	if st.DeltasSubmitted != uint64(want) || st.FlushedTuples != 2*uint64(want) {
		t.Fatalf("%d deltas submitted, %d tuples flushed; want %d and %d", st.DeltasSubmitted, st.FlushedTuples, want, 2*want)
	}
}

// TestSubmitSyncSharesFlush: sync submitters queued behind a running flush
// share the next flush instead of taking one each, and each gets back a
// version at which its tuple is visible.
func TestSubmitSyncSharesFlush(t *testing.T) {
	ctx := context.Background()
	const callers = 8
	s, err := NewStore(ctx, nil, cq.Database{}, Config{History: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.Register(ctx, "q", mustQuery(t, "R(x)")); err != nil {
		t.Fatal(err)
	}
	sub, err := s.Watch("q")
	if err != nil {
		t.Fatal(err)
	}
	started, release := holdFirstStage(t, s)
	if err := s.Submit(storage.NewDelta().Add("R", "first")); err != nil {
		t.Fatal(err)
	}
	started() // the earlier flush is mid-stage, holding flushMu

	versions := make([]uint64, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.SubmitSync(ctx, storage.NewDelta().Add("R", fmt.Sprint("s", i)))
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			versions[i] = v
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.PendingTuples() < callers { // every caller has merged its tuple
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sync submits pending after 10s", s.PendingTuples(), callers)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()

	if st := s.Stats(); st.Flushes > 3 {
		t.Fatalf("%d flushes followed the held one, want at most 2", st.Flushes-1)
	}
	addedAt := map[string]uint64{}
	for _, n := range drain(sub) {
		for _, row := range n.Added {
			addedAt[row[0]] = n.Version
		}
	}
	for i, v := range versions {
		if at, ok := addedAt[fmt.Sprint("s", i)]; !ok || v < at {
			t.Fatalf("caller %d got version %d, but its tuple became visible at %d (seen: %v)", i, v, at, ok)
		}
	}
	if n, _, err := s.Count("q"); err != nil || n != callers+1 {
		t.Fatalf("Count = %d, %v; want %d", n, err, callers+1)
	}
}

// TestRegisterSemantics: idempotent re-registration, name collisions, poison
// batches (arity mismatch) dropped with the snapshot intact. The flusher is
// stopped: several checks are against tuples still pending.
func TestRegisterSemantics(t *testing.T) {
	ctx := context.Background()
	db := cq.Database{}
	db.Add("R", "a", "b")
	store, err := NewStore(ctx, nil, db, Config{History: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	stopFlusher(store)
	q1, _ := cq.ParseQuery("R(x,y)")
	q2, _ := cq.ParseQuery("R(x,x)")
	if err := store.Register(ctx, "q", q1); err != nil {
		t.Fatal(err)
	}
	if err := store.Register(ctx, "q", q1); err != nil {
		t.Fatalf("idempotent re-register: %v", err)
	}
	if err := store.Register(ctx, "q", q2); err == nil {
		t.Fatal("conflicting registration under a taken name must fail")
	}
	if _, _, err := store.Count("nope"); err == nil {
		t.Fatal("Count of unknown query must fail")
	}
	if _, err := store.Watch("nope"); err == nil {
		t.Fatal("Watch of unknown query must fail")
	}
	// Arity mismatches are rejected at Submit time — before they could
	// poison the shared coalesced batch — against the snapshot's tables,
	// against tuples pending in the batch, and within one delta.
	if err := store.Submit(storage.NewDelta().Add("R", "only-one-column")); err == nil {
		t.Fatal("insert mismatching the compiled relation's arity must be rejected")
	}
	if err := store.Submit(storage.NewDelta().Remove("R", "a", "b", "c")); err == nil {
		t.Fatal("delete mismatching the compiled relation's arity must be rejected")
	}
	if err := store.Submit(storage.NewDelta().Add("New", "x").Add("New", "y", "z")); err == nil {
		t.Fatal("one delta mixing arities for a fresh relation must be rejected")
	}
	if err := store.Submit(storage.NewDelta().Add("New", "x", "y")); err != nil {
		t.Fatal(err)
	}
	if err := store.Submit(storage.NewDelta().Add("New", "z")); err == nil {
		t.Fatal("insert mismatching a pending relation's arity must be rejected")
	}
	// Deletes against an absent relation are vacuous at any arity (Apply
	// treats them the same way)…
	if err := store.Submit(storage.NewDelta().Remove("Ghost", "a", "b", "c")); err != nil {
		t.Fatalf("vacuous delete rejected: %v", err)
	}
	// …but an insert that would create that relation with a different arity
	// conflicts with the pending delete: Apply would reject the merged
	// batch, so Submit must reject the insert — in either order.
	if err := store.Submit(storage.NewDelta().Add("Ghost", "x", "y")); err == nil {
		t.Fatal("insert conflicting with a pending vacuous delete must be rejected")
	}
	if err := store.Submit(storage.NewDelta().Add("Ghost", "x", "y", "z")); err != nil {
		t.Fatalf("insert matching the pending delete's arity rejected: %v", err)
	}
	// A registered query's atom fixes the arity of a relation the database
	// does not hold yet: tuples that could never bind against it are
	// rejected at Submit instead of failing every Rebind at flush time.
	qm, _ := cq.ParseQuery("Missing(x,y)")
	if err := store.Register(ctx, "qm", qm); err != nil {
		t.Fatal(err)
	}
	if err := store.Submit(storage.NewDelta().Add("Missing", "1", "2", "3")); err == nil {
		t.Fatal("insert mismatching a registered atom's arity must be rejected")
	}
	if err := store.Submit(storage.NewDelta().Add("Missing", "1", "2")); err != nil {
		t.Fatalf("insert matching the registered atom's arity rejected: %v", err)
	}
	// A later registration whose atom disagrees with the recorded arity of
	// an absent relation is rejected outright — once tuples arrived, one of
	// the two queries would fail every Rebind.
	qc, _ := cq.ParseQuery("Missing(x,y,z)")
	if err := store.Register(ctx, "qc", qc); err == nil {
		t.Fatal("registration conflicting with a recorded atom arity must fail")
	}
	if st := store.Stats(); st.FlushErrors != 0 {
		t.Fatalf("rejected submits must not count as flush errors, got %d", st.FlushErrors)
	}
	if err := store.Flush(ctx); err != nil {
		t.Fatalf("flush after rejected submits: %v", err)
	}
	if err := store.Submit(storage.NewDelta().Add("R", "c", "d")); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if cnt, _, err := store.Count("q"); err != nil || cnt != 2 {
		t.Fatalf("Count after valid delta = %d (%v), want 2", cnt, err)
	}
}

// TestFlushCancelRestoresBatch: a transient flush failure (cancelled
// context) must re-queue the coalesced batch instead of dropping other
// submitters' tuples; the next flush applies it. The flusher is stopped, so
// the submit stays pending for the cancelled flush to fail on.
func TestFlushCancelRestoresBatch(t *testing.T) {
	ctx := context.Background()
	db := cq.Database{}
	db.Add("R", "a", "b")
	store, err := NewStore(ctx, nil, db, Config{History: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	stopFlusher(store)
	v0 := store.Version()
	q, _ := cq.ParseQuery("R(x,y)")
	if err := store.Register(ctx, "q", q); err != nil {
		t.Fatal(err)
	}
	if err := store.Submit(storage.NewDelta().Add("R", "c", "d")); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := store.Flush(cancelled); err == nil {
		t.Fatal("flush with a cancelled context must report the error")
	}
	st := store.Stats()
	if st.PendingTuples != 1 || st.Version != v0 || st.FlushErrors != 1 {
		t.Fatalf("after cancelled flush: pending=%d version=%d errors=%d, want 1/%d/1", st.PendingTuples, st.Version, st.FlushErrors, v0)
	}
	if err := store.Flush(ctx); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	if cnt, _, err := store.Count("q"); err != nil || cnt != 2 {
		t.Fatalf("Count after retried flush = %d (%v), want 2", cnt, err)
	}
}
