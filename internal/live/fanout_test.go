package live

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// fanoutStore builds a store with one registered unary query "q" over R and
// n subscribers watching it, returning the store and the subscriptions.
func fanoutStore(t *testing.T, cfg Config, n int) (*Store, []*Subscription) {
	t.Helper()
	ctx := context.Background()
	db := cq.Database{}
	db.Add("R", "seed")
	s, err := NewStore(ctx, nil, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	q, err := cq.ParseQuery("R(x)")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ctx, "q", q); err != nil {
		t.Fatal(err)
	}
	subs := make([]*Subscription, n)
	for i := range subs {
		sub, err := s.Watch("q")
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	return s, subs
}

// TestNotificationRingAliasing pins the immutability contract of the shared
// broadcast ring: Lagged is per-subscriber state set on the DELIVERED COPY
// only. A slow subscriber taking a lagged delivery must not scribble its lag
// onto the ring entry every other subscriber (and every resume from a cursor)
// reads.
func TestNotificationRingAliasing(t *testing.T) {
	cfg := Config{History: 1}
	s, subs := fanoutStore(t, cfg, 2)
	slow, fast := subs[0], subs[1]
	ctx := context.Background()
	base := s.Stats().Version - 1 // the store starts at version base+1

	// Four changes; fast drains each flush, slow never reads.
	for v := base + 2; v <= base+5; v++ {
		if err := s.Submit(storage.NewDelta().Add("R", fmt.Sprintf("t%d", v))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		n, ok := fast.TryNext()
		if !ok || n.Version != v || n.Lagged != 0 {
			t.Fatalf("fast subscriber at version %d got %+v ok=%v, want Lagged 0", v, n, ok)
		}
	}

	// The slow subscriber fell off the 1-entry ring: it gets only the newest
	// notification, with the three losses surfaced on its delivered copy.
	n, ok := slow.TryNext()
	if !ok || n.Version != base+5 || n.Lagged != 3 {
		t.Fatalf("slow subscriber got %+v ok=%v, want version 5 with Lagged 3", n, ok)
	}

	// The shared ring entry itself must be untouched by that delivery.
	s.mu.Lock()
	entry := s.queries["q"].ring[0]
	s.mu.Unlock()
	if entry.Lagged != 0 {
		t.Fatalf("ring entry carries Lagged %d: a per-subscriber delivery mutated the shared notification", entry.Lagged)
	}

	// And a resume reading the same entry sees it pristine too.
	sub, snap, err := s.Subscribe("q", base+4, true)
	if err != nil || !snap.Resumed {
		t.Fatalf("Subscribe(q,4) resumed=%v err=%v, want an exact resume", snap.Resumed, err)
	}
	n, ok = sub.TryNext()
	if !ok || n.Version != base+5 || n.Lagged != 0 {
		t.Fatalf("resumed subscriber got %+v ok=%v, want version 5 with Lagged 0 (aliased lag leaked into the ring)", n, ok)
	}
	sub.Cancel()
}

// TestMassFanoutAccounting runs 10k watchers on one hot query with a tiny
// ring and checks the drop/Lagged arithmetic is exact for every one of them:
// the ring is shared, so each subscriber loses precisely the flushes that
// fell off the tail, no more, no fewer, and the store-wide Dropped counter is
// the exact sum.
func TestMassFanoutAccounting(t *testing.T) {
	const (
		watchers = 10000
		flushes  = 10
		ringCap  = 4
	)
	cfg := Config{History: ringCap}
	s, subs := fanoutStore(t, cfg, watchers)
	ctx := context.Background()
	base := s.Stats().Version - 1 // the store starts at version base+1

	for i := 0; i < flushes; i++ {
		if err := s.Submit(storage.NewDelta().Add("R", fmt.Sprintf("t%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Versions base+2..base+flushes+1 were published; the ring keeps the
	// last ringCap, so every subscriber lost exactly flushes-ringCap and then
	// reads the surviving tail in order.
	firstKept := base + 2 + flushes - ringCap
	for i, sub := range subs {
		n, ok := sub.TryNext()
		if !ok || n.Version != firstKept || n.Lagged != uint64(flushes-ringCap) {
			t.Fatalf("sub %d first delivery %+v ok=%v, want version %d with Lagged %d",
				i, n, ok, firstKept, flushes-ringCap)
		}
		for v := firstKept + 1; v <= base+flushes+1; v++ {
			n, ok := sub.TryNext()
			if !ok || n.Version != v || n.Lagged != 0 {
				t.Fatalf("sub %d at version %d got %+v ok=%v, want Lagged 0", i, v, n, ok)
			}
		}
		if n, ok := sub.TryNext(); ok {
			t.Fatalf("sub %d got unexpected trailing notification %+v", i, n)
		}
	}

	st := s.Stats()
	wantDropped := uint64(watchers * (flushes - ringCap))
	if st.Dropped != wantDropped {
		t.Fatalf("Stats.Dropped = %d, want exactly %d (%d watchers x %d evicted flushes)",
			st.Dropped, wantDropped, watchers, flushes-ringCap)
	}
	if st.Subscribers != watchers {
		t.Fatalf("Stats.Subscribers = %d, want %d", st.Subscribers, watchers)
	}
}

// TestFanoutAllocsFlat pins the broadcast design's cost model: one flush of a
// hot query allocates one ring entry regardless of how many subscribers
// watch it. With per-subscriber channels (the old fan-out) every flush paid
// O(watchers); with the shared ring the per-flush allocation count must be
// flat from 16 watchers to 10k.
func TestFanoutAllocsFlat(t *testing.T) {
	perFlush := func(watchers int) float64 {
		cfg := Config{History: 4}
		s, _ := fanoutStore(t, cfg, watchers)
		ctx := context.Background()
		// Warm up: fill the ring so steady-state flushes evict in place.
		seq := 0
		flushOne := func() {
			seq++
			if err := s.Submit(storage.NewDelta().Add("R", fmt.Sprintf("w%d", seq))); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			flushOne()
		}
		return testing.AllocsPerRun(32, flushOne)
	}

	small := perFlush(16)
	big := perFlush(10000)
	t.Logf("per-flush allocs: %.1f at 16 subs, %.1f at 10000 subs", small, big)
	// The flush pipeline itself allocates (delta, staging, decoded rows) but
	// none of that scales with subscribers; any per-watcher allocation would
	// add thousands here.
	if big > small+100 {
		t.Fatalf("per-flush allocations scale with watchers: %.1f at 16 subs vs %.1f at 10k subs", small, big)
	}
}

// TestMassCancelMidFlush cancels a thousand subscribers while a flush is held
// mid-stage: Cancel is wait-free (mu only, never flushMu), the flush must
// complete against the shrunken subscriber list, and a subscriber cancelled
// before the flush's broadcast never sees its notification.
func TestMassCancelMidFlush(t *testing.T) {
	const watchers = 1000
	cfg := Config{History: 8}
	s, subs := fanoutStore(t, cfg, watchers)
	ctx := context.Background()

	hold := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.stageHook = func() {
		entered <- struct{}{}
		<-hold
	}
	if err := s.Submit(storage.NewDelta().Add("R", "mid")); err != nil {
		t.Fatal(err)
	}
	flushDone := make(chan error, 1)
	go func() { flushDone <- s.Flush(ctx) }()
	<-entered // mid-stage: flushMu held, mu free

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < watchers; i += 8 {
				subs[i].Cancel()
			}
		}(g)
	}
	wg.Wait() // all cancels completed while the stage is still held
	s.stageHook = nil
	close(hold)
	if err := <-flushDone; err != nil {
		t.Fatalf("flush across mass cancel: %v", err)
	}

	if st := s.Stats(); st.Subscribers != 0 {
		t.Fatalf("Stats.Subscribers = %d after mass cancel, want 0", st.Subscribers)
	}
	// Every stream ended before the flush broadcast: frozen limits mean the
	// mid-flush notification is never delivered, and Next reports over.
	for i, sub := range subs {
		if n, ok := sub.TryNext(); ok {
			t.Fatalf("cancelled sub %d received post-cancel notification %+v", i, n)
		}
		if _, ok := sub.Next(ctx); ok {
			t.Fatalf("cancelled sub %d: Next did not report the stream over", i)
		}
	}
}

// TestCloseDrainsBlockedWatchers parks a crowd of goroutines in Next and
// closes the store under them: each must wake, drain the final flush's
// notification, observe the stream end, and exit — no goroutine leaks, no
// stuck receivers.
func TestCloseDrainsBlockedWatchers(t *testing.T) {
	const watchers = 256
	baseline := runtime.NumGoroutine()
	cfg := Config{History: 8}
	s, subs := fanoutStore(t, cfg, watchers)
	ctx := context.Background()
	want := s.Stats().Version + 1

	// One committed change sits in every ring; each watcher drains it and
	// then blocks in Next waiting for more.
	if err := s.Submit(storage.NewDelta().Add("R", "pre")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	got := make([]int, watchers)
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub *Subscription) {
			defer wg.Done()
			for {
				n, ok := sub.Next(ctx)
				if !ok {
					return
				}
				if n.Version != want || n.Lagged != 0 {
					t.Errorf("watcher %d got %+v, want version %d Lagged 0", i, n, want)
				}
				got[i]++
			}
		}(i, sub)
	}

	// Wait until every watcher has consumed the published notification and
	// is parked in Next again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		drained := true
		for _, sub := range subs {
			if sub.cursor != sub.lq.ringEnd() {
				drained = false
				break
			}
		}
		s.mu.Unlock()
		if drained {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchers never drained the published notification")
		}
		time.Sleep(time.Millisecond)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, n := range got {
		if n != 1 {
			t.Fatalf("watcher %d received %d notifications, want exactly 1", i, n)
		}
	}
	awaitGoroutines(t, baseline)
}
