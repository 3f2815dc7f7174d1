package live

import (
	"context"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// TestSubmitProgressDuringSlowStage pins the lock-protocol claim of the
// O(change) flush path: a flush's engine work runs outside Store.mu, so
// Submit, Count, Stats, Solutions and Subscription.Cancel all make progress
// while a stage is in flight. The stage hook holds a flush mid-stage (under
// flushMu, mu released) until the wait-free operations have demonstrably
// completed; run under -race this also exercises the two-lock protocol's
// cross-goroutine field accesses.
func TestSubmitProgressDuringSlowStage(t *testing.T) {
	ctx := context.Background()
	db := cq.Database{}
	db.Add("R", "c0", "c1")
	db.Add("S", "c1", "c2")
	s, err := NewStore(ctx, nil, db, Config{History: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q, err := cq.ParseQuery("R(a,b), S(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ctx, "q", q); err != nil {
		t.Fatal(err)
	}
	sub, err := s.Watch("q")
	if err != nil {
		t.Fatal(err)
	}
	v0 := s.Version()
	hold := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.stageHook = func() {
		entered <- struct{}{}
		<-hold
	}
	if err := s.Submit(storage.NewDelta().Add("R", "c5", "c1")); err != nil {
		t.Fatal(err)
	}
	flushDone := make(chan error, 1)
	go func() { flushDone <- s.Flush(ctx) }()
	<-entered // the flush is now mid-stage: flushMu held, mu free
	stalled := time.Now()

	progress := make(chan struct{})
	go func() {
		defer close(progress)
		if err := s.Submit(storage.NewDelta().Add("S", "c1", "c6")); err != nil {
			t.Errorf("Submit during stage: %v", err)
		}
		if n, _, err := s.Count("q"); err != nil || n != 1 {
			t.Errorf("Count during stage = %d, %v; want 1 (pre-flush snapshot)", n, err)
		}
		if st := s.Stats(); st.PendingTuples == 0 {
			t.Error("Stats during stage: the mid-stage submit should be pending")
		}
		if rows, _, err := s.Solutions(ctx, "q", 0); err != nil || len(rows) != 1 {
			t.Errorf("Solutions during stage = %d rows, %v; want 1", len(rows), err)
		}
		sub.Cancel()
	}()
	select {
	case <-progress:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit/Count/Stats/Solutions blocked behind an in-progress stage")
	}

	// The stall lasts at least 20ms even when the progress checks finish in
	// microseconds, so that one GC pause inside a lock hold cannot outlast
	// the whole stage and fail the comparison at the end.
	time.Sleep(20*time.Millisecond - time.Since(stalled))
	close(hold)
	if err := <-flushDone; err != nil {
		t.Fatalf("held flush: %v", err)
	}
	// The mid-stage submit coalesced into the next batch; flush it too.
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// R(c0,c1) R(c5,c1) join S(c1,c2) S(c1,c6): both flushes committed.
	if n, v, err := s.Count("q"); err != nil || n != 4 || v != v0+2 {
		t.Fatalf("Count after both flushes = %d at version %d, %v; want 4 at %d", n, v, err, v0+2)
	}
	// The stage carried the deliberate stall, the mu hold did not.
	fs := s.Stats().Flush
	if fs.StageNs == 0 || fs.MaxLockHoldNs == 0 {
		t.Fatalf("flush timings not recorded: %+v", fs)
	}
	if fs.MaxLockHoldNs >= fs.StageNs {
		t.Fatalf("max lock hold %dns not below cumulative stage %dns", fs.MaxLockHoldNs, fs.StageNs)
	}
}
