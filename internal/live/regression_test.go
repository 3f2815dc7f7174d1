package live

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
	"d2cq/internal/wal"
)

// TestRegisterRejectsPendingArityConflict pins the poison-batch fix: an
// insert coalesced into the pending batch fixes an unknown relation's arity
// exactly as a committed table would, so a registration whose atom demands a
// different arity must be rejected at Register time. Before the fix the
// registration was admitted and the next flush's Rebind failed
// deterministically — stageFail dropped the whole batch as poison, losing
// every other submitter's tuples.
func TestRegisterRejectsPendingArityConflict(t *testing.T) {
	ctx := context.Background()
	s, err := NewStore(ctx, nil, cq.Database{}, Config{Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stopFlusher(s)

	// T is unknown to the store; this submit pins it at arity 3 inside the
	// pending batch only — nothing is committed yet.
	if err := s.Submit(storage.NewDelta().Add("T", "a", "b", "c")); err != nil {
		t.Fatal(err)
	}
	q2, err := cq.ParseQuery("T(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	err = s.Register(ctx, "bad", q2)
	if err == nil {
		t.Fatal("Register admitted a query whose atom conflicts with pending tuples")
	}
	if !strings.Contains(err.Error(), "already pending") {
		t.Fatalf("want a pending-arity error, got: %v", err)
	}

	// The batch must not have been poisoned: the pending tuples flush
	// cleanly and a matching-arity registration still works.
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("flush after rejected registration: %v", err)
	}
	st := s.Stats()
	if st.FlushErrors != 0 || st.Version != 2 || st.PendingTuples != 0 {
		t.Fatalf("flush errors=%d version=%d pending=%d, want 0/2/0 (%s)",
			st.FlushErrors, st.Version, st.PendingTuples, st.LastError)
	}
	q3, err := cq.ParseQuery("T(x,y,z)")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ctx, "good", q3); err != nil {
		t.Fatal(err)
	}
	if n, _, err := s.Count("good"); err != nil || n != 1 {
		t.Fatalf("Count = %d, %v; want 1", n, err)
	}
}

// TestRegisterRollsBackArityReservations checks the failure path of the
// reservation scheme guarding the fix above: a registration that reserves
// arities for unknown relations and then fails must release them, or the
// dead query would pin arities forever.
func TestRegisterRollsBackArityReservations(t *testing.T) {
	ctx := context.Background()
	s, err := NewStore(ctx, nil, cq.Database{}, Config{Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Submit(storage.NewDelta().Add("U", "a", "b", "c")); err != nil {
		t.Fatal(err)
	}
	// V(x,y) reserves V at arity 2, then the U(x,y) atom conflicts with the
	// pending 3-ary U tuples and the whole registration fails.
	q, err := cq.ParseQuery("V(x,y), U(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ctx, "fails", q); err == nil {
		t.Fatal("Register admitted a conflicting query")
	}
	// V's reservation must be gone: a 3-ary V submit and registration work.
	if err := s.Submit(storage.NewDelta().Add("V", "p", "q", "r")); err != nil {
		t.Fatalf("V reservation leaked into Submit validation: %v", err)
	}
	q3, err := cq.ParseQuery("V(x,y,z)")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ctx, "v3", q3); err != nil {
		t.Fatalf("V reservation leaked into Register: %v", err)
	}
}

// TestRestoreKicksFullBatch pins the retry of a batch restored after a
// cancelled sync caller: the flusher must apply it without a new submit. A
// sync submit never wakes the flusher itself, so without the wake from
// restore the tuples would wait for traffic that may never come.
func TestRestoreKicksFullBatch(t *testing.T) {
	ctx := context.Background()
	s, err := NewStore(ctx, nil, cq.Database{}, Config{Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register(ctx, "q", mustQuery(t, "R(x,y)")); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.SubmitSync(cctx, storage.NewDelta().Add("R", "a1", "b1").Add("R", "a2", "b2")); err == nil {
		t.Fatal("a sync submit with a cancelled context should fail its flush")
	}

	// The restore's wake makes the background flusher (context.Background,
	// so the retry succeeds) apply the batch.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Version == 2 && st.PendingTuples == 0 {
			if st.FlushedTuples != 2 || st.FlushErrors != 1 {
				t.Fatalf("flushed %d tuples after %d errors, want 2 after 1", st.FlushedTuples, st.FlushErrors)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("restored batch never flushed: version=%d pending=%d (restore did not wake the flusher)",
				st.Version, st.PendingTuples)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// failingSegments is a log backend whose segment writes fail while fail is
// set, as a full or broken disk would.
type failingSegments struct {
	*wal.Mem
	fail *atomic.Bool
}

func (b failingSegments) CreateSegment(start uint64) (wal.SegmentWriter, error) {
	w, err := b.Mem.CreateSegment(start)
	if err != nil {
		return nil, err
	}
	return failingWriter{w, b.fail}, nil
}

type failingWriter struct {
	wal.SegmentWriter
	fail *atomic.Bool
}

func (w failingWriter) Write(p []byte) (int, error) {
	if w.fail.Load() {
		return 0, errors.New("injected segment write failure")
	}
	return w.SegmentWriter.Write(p)
}

// TestFailedFlushDoesNotSpin pins the retry rule of restore: a batch whose
// WAL append fails is re-queued without waking the flusher, which would meet
// the same failure at once and spin. It waits for the next submit instead,
// and then lands exactly once, with the tuples submitted since.
func TestFailedFlushDoesNotSpin(t *testing.T) {
	ctx := context.Background()
	var fail atomic.Bool
	mem := wal.NewMem()
	s, err := Open(ctx, nil, durableConfig(failingSegments{mem, &fail}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register(ctx, "q", mustQuery(t, "R(x,y)")); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	if err := s.Submit(storage.NewDelta().Add("R", "a", "b")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if st := s.Stats(); st.FlushErrors < 1 || st.FlushErrors > 2 || st.PendingTuples != 1 {
		t.Fatalf("50ms after one submit to a failing log: %d flush errors, %d pending; want 1 or 2 and 1",
			st.FlushErrors, st.PendingTuples)
	}

	fail.Store(false)
	if err := s.Submit(storage.NewDelta().Add("R", "c", "d")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.PendingTuples() != 0 || s.Version() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("the next submit did not land the restored batch: version %d, %d pending", s.Version(), s.PendingTuples())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n, _, err := s.Count("q"); err != nil || n != 2 {
		t.Fatalf("Count = %d, %v; want 2", n, err)
	}
	if st := s.Stats(); st.Flushes != 1 || st.FlushedTuples != 2 {
		t.Fatalf("%d flushes of %d tuples, want 1 of 2", st.Flushes, st.FlushedTuples)
	}
	// The log holds both deltas once: recovery lands on the same state.
	re, err := Open(ctx, nil, durableConfig(mem.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, v, err := re.Count("q"); err != nil || n != 2 || v != 2 {
		t.Fatalf("recovered Count = %d at version %d, %v; want 2 at 2", n, v, err)
	}
}

// TestRegisterDuringSlowStage races Register and Watch against an in-flight
// stage. The stage snapshots the query registry in one mu section before
// fanning per-query work over the engine pool; before that fix it read
// s.queries while walking it outside mu, racing with registration. Run under
// -race this pins the snapshot discipline; functionally it checks that a
// registration landing mid-stage is simply sequenced after the flush and
// included in the next one.
func TestRegisterDuringSlowStage(t *testing.T) {
	ctx := context.Background()
	db := cq.Database{}
	db.Add("R", "c0", "c1")
	s, err := NewStore(ctx, nil, db, Config{Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q1, err := cq.ParseQuery("R(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ctx, "q1", q1); err != nil {
		t.Fatal(err)
	}

	hold := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.stageHook = func() {
		entered <- struct{}{}
		<-hold
	}
	if err := s.Submit(storage.NewDelta().Add("R", "c2", "c3")); err != nil {
		t.Fatal(err)
	}
	flushDone := make(chan error, 1)
	go func() { flushDone <- s.Flush(ctx) }()
	<-entered // mid-stage: flushMu held, mu free

	// Register and Watch both serialise on flushMu, so they must block
	// behind the stage and complete right after it — never observe a
	// half-staged registry.
	regDone := make(chan error, 1)
	watchDone := make(chan error, 1)
	go func() {
		q2, err := cq.ParseQuery("R(x,x)")
		if err != nil {
			regDone <- err
			return
		}
		regDone <- s.Register(ctx, "q2", q2)
	}()
	go func() {
		sub, err := s.Watch("q1")
		if err == nil {
			defer sub.Cancel()
		}
		watchDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // give both a chance to hit flushMu
	s.stageHook = nil
	close(hold)
	if err := <-flushDone; err != nil {
		t.Fatalf("held flush: %v", err)
	}
	if err := <-regDone; err != nil {
		t.Fatalf("Register racing a slow stage: %v", err)
	}
	if err := <-watchDone; err != nil {
		t.Fatalf("Watch racing a slow stage: %v", err)
	}

	// The new registration is picked up by the next stage.
	if err := s.Submit(storage.NewDelta().Add("R", "c4", "c4")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n, _, err := s.Count("q2"); err != nil || n != 1 {
		t.Fatalf("Count(q2) = %d, %v; want 1 (registration lost by the staged flush)", n, err)
	}
}

// TestCommitStatsSampledOnce pins the stats-skew fix: one flush's commit
// duration must land identically in the cumulative and last-flush counters.
// Before the fix flushSerialized sampled time.Since(commitStart) twice, so
// CommitNs and LastCommitNs disagreed for the same flush, with LastCommitNs
// also absorbing the stats writes between the two samples.
func TestCommitStatsSampledOnce(t *testing.T) {
	ctx := context.Background()
	s, err := NewStore(ctx, nil, cq.Database{}, Config{Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Submit(storage.NewDelta().Add("R", "a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Flushes != 1 {
		t.Fatalf("flushes = %d, want 1", st.Flushes)
	}
	if st.Flush.CommitNs != st.Flush.LastCommitNs {
		t.Fatalf("after one flush CommitNs=%d != LastCommitNs=%d: commit duration sampled twice",
			st.Flush.CommitNs, st.Flush.LastCommitNs)
	}
}

// TestStageNeverTakesSubmitLock pins the submit lock's independence from the
// registry: a flush's stage used to rebuild, sort and allocate its view of the
// registry under mu (O(registry·log registry) of hold time per flush); now
// the registry is kept in name order where it grows, at Register, and the
// stage reads it — and who is watched — without mu at all. The proof is not a
// timing: the test holds mu itself while a stage runs, over 8 queries and
// over 256, and the stage must still finish, in name order, with the watched
// query's notification staged.
func TestStageNeverTakesSubmitLock(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{8, 256} {
		s, err := NewStore(ctx, nil, cq.Database{}, Config{Buffer: 4})
		if err != nil {
			t.Fatal(err)
		}
		q, err := cq.ParseQuery("R(x,y), S(y,z)")
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range rand.New(rand.NewSource(int64(n))).Perm(n) { // registration order is not name order
			if err := s.Register(ctx, fmt.Sprintf("q%03d", i), q); err != nil {
				t.Fatal(err)
			}
		}
		watchedName := fmt.Sprintf("q%03d", n/2)
		sub, err := s.Watch(watchedName)
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range []string{"R", "S"} {
			rs := s.readers[rel]
			if !sort.SliceIsSorted(rs, func(i, j int) bool { return rs[i].name < rs[j].name }) || len(rs) != n {
				t.Fatalf("%d queries: readers of %s are not the %d names in order", n, rel, n)
			}
		}

		s.flushMu.Lock()
		s.mu.Lock()
		type result struct {
			st  stagedFlush
			err error
		}
		done := make(chan result, 1)
		go func() {
			st, err := s.stage(ctx, storage.NewDelta().Add("R", "a", "b").Add("S", "b", "c"), s.version+1)
			done <- result{st, err}
		}()
		var r result
		select {
		case r = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%d queries: stage is waiting for the submit lock", n)
		}
		s.mu.Unlock()
		s.flushMu.Unlock()
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.st.next) != n {
			t.Fatalf("staged %d queries, want %d", len(r.st.next), n)
		}
		for i, st := range r.st.next {
			if want := fmt.Sprintf("q%03d", i); st.lq.name != want {
				t.Fatalf("staged[%d] is %s, want %s (name order)", i, st.lq.name, want)
			}
			if (st.note != nil) != (st.lq.name == watchedName) {
				t.Fatalf("%s: notification staged = %v, watched = %v", st.lq.name, st.note != nil, st.lq.name == watchedName)
			}
		}
		sub.Cancel()
		s.Close()
	}
}
