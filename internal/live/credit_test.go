package live

import (
	"context"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// creditStore builds a store with one registered two-atom query.
func creditStore(t *testing.T) (*Store, string) {
	t.Helper()
	s, err := NewStore(context.Background(), nil, cq.Database{}, Config{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	q, err := cq.ParseQuery("R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(context.Background(), "paths", q); err != nil {
		t.Fatal(err)
	}
	return s, "paths"
}

// submitPair makes exactly one new solution of the query visible at the next
// flush.
func submitPair(t *testing.T, s *Store, k int) {
	t.Helper()
	d := storage.NewDelta().
		Add("R", "a"+itoa(k), "b"+itoa(k)).
		Add("S", "b"+itoa(k), "c"+itoa(k))
	if err := s.Submit(d); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func itoa(k int) string {
	if k < 10 {
		return string(rune('0' + k))
	}
	return itoa(k/10) + itoa(k%10)
}

// TestCreditGatesDelivery: a credited subscription with zero credit parks —
// no delivery, parked visible in Stats — and Grant releases exactly as many
// notifications as credits, counting the resume.
func TestCreditGatesDelivery(t *testing.T) {
	s, name := creditStore(t)
	sub, err := s.Watch(name)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	sub.EnableCredit(0)

	submitPair(t, s, 1)
	submitPair(t, s, 2)

	if n, ok := sub.TryNext(); ok {
		t.Fatalf("delivery with zero credit: %+v", n)
	}
	st := s.Stats()
	if len(st.Backpressure) != 1 {
		t.Fatalf("backpressure entries = %d, want 1 (%+v)", len(st.Backpressure), st.Backpressure)
	}
	bp := st.Backpressure[0]
	if bp.Query != name || bp.CreditedStreams != 1 || bp.ParkedStreams != 1 || bp.OutstandingCredit != 0 {
		t.Fatalf("backpressure = %+v, want credited=1 parked=1 credit=0", bp)
	}
	if bp.Resumes != 0 {
		t.Fatalf("resumes before any grant = %d", bp.Resumes)
	}

	sub.Grant(1)
	n, ok := sub.TryNext()
	if !ok || n.Version != 2 {
		t.Fatalf("first granted delivery = %+v ok=%v, want version 2", n, ok)
	}
	if n, ok := sub.TryNext(); ok {
		t.Fatalf("second delivery on one credit: %+v", n)
	}
	bp = s.Stats().Backpressure[0]
	if bp.Resumes != 1 {
		t.Fatalf("resumes after un-park = %d, want 1", bp.Resumes)
	}
	if bp.ParkedStreams != 1 {
		t.Fatalf("parked after re-exhaustion = %d, want 1 (one change still queued)", bp.ParkedStreams)
	}

	// Grant releases the backlog and leaves credit outstanding.
	sub.Grant(3)
	if n, ok := sub.TryNext(); !ok || n.Version != 3 {
		t.Fatalf("backlog delivery = %+v ok=%v, want version 3", n, ok)
	}
	bp = s.Stats().Backpressure[0]
	if bp.OutstandingCredit != 2 || bp.ParkedStreams != 0 {
		t.Fatalf("after drain: %+v, want outstanding=2 parked=0", bp)
	}
	if bp.Resumes != 2 {
		t.Fatalf("resumes = %d, want 2", bp.Resumes)
	}
}

// TestCreditNextBlocksUntilGrant: Next blocks while parked and resumes on a
// concurrent Grant.
func TestCreditNextBlocksUntilGrant(t *testing.T) {
	s, name := creditStore(t)
	sub, err := s.Watch(name)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	sub.EnableCredit(0)
	submitPair(t, s, 1)

	got := make(chan Notification, 1)
	go func() {
		n, ok := sub.Next(context.Background())
		if ok {
			got <- n
		}
		close(got)
	}()
	select {
	case n := <-got:
		t.Fatalf("Next returned %+v without credit", n)
	case <-time.After(50 * time.Millisecond):
	}
	sub.Grant(1)
	select {
	case n, ok := <-got:
		if !ok || n.Version != 2 {
			t.Fatalf("Next after grant = %+v ok=%v", n, ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next still blocked after Grant")
	}
}

// TestCreditParkedStreamEndsOnCancelAndClose: a parked stream must terminate
// — not spin or hang — when its subscription is cancelled or the store
// closes, even though undelivered entries remain.
func TestCreditParkedStreamEndsOnCancelAndClose(t *testing.T) {
	s, name := creditStore(t)
	subA, err := s.Watch(name)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := s.Watch(name)
	if err != nil {
		t.Fatal(err)
	}
	subA.EnableCredit(0)
	subB.EnableCredit(0)
	submitPair(t, s, 1)

	subA.Cancel()
	if _, ok := subA.Next(context.Background()); ok {
		t.Fatal("cancelled parked stream delivered")
	}
	// Grant after Cancel is a no-op: the stream stays over.
	subA.Grant(5)
	if _, ok := subA.TryNext(); ok {
		t.Fatal("grant revived a cancelled stream")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := subB.Next(context.Background()); ok {
			t.Error("parked stream delivered during Close")
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parked Next did not end on Close")
	}
}
