package wire

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/live"
	"d2cq/internal/storage"
)

// holdingService is a store whose SubmitSync waits until release closes,
// announcing each held call on held.
type holdingService struct {
	*live.Store
	held    chan struct{}
	release chan struct{}
}

func (h *holdingService) SubmitSync(ctx context.Context, delta *storage.Delta) (uint64, error) {
	h.held <- struct{}{}
	select {
	case <-h.release:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return h.Store.SubmitSync(ctx, delta)
}

// TestBusyWorkerBlocksNothing: while a sync SUBMIT is held inside the store,
// a QUERY and an async SUBMIT on the same connection still answer, and a
// CREDIT still reaches its watch stream.
func TestBusyWorkerBlocksNothing(t *testing.T) {
	s, err := live.NewStore(context.Background(), nil, cq.Database{}, live.Config{History: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	h := &holdingService{Store: s, held: make(chan struct{}, 1), release: make(chan struct{})}
	_, addr := serve(t, h, "")
	c := dialTest(t, addr, "")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := c.Register(ctx, "paths", "R(x,y), S(y,z)"); err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(ctx, "paths", WatchOptions{Window: -1, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() {
		_, _, err := c.Submit(ctx, pairDelta(1), true)
		synced <- err
	}()
	select {
	case <-h.held:
	case <-ctx.Done():
		t.Fatal("the sync SUBMIT never reached the store")
	}

	if rows, _, err := c.Solutions(ctx, "paths", 0); err != nil || len(rows) != 0 {
		t.Fatalf("QUERY beside a held SUBMIT = %v, %v; want no rows", rows, err)
	}
	if _, _, err := c.Submit(ctx, pairDelta(2), false); err != nil {
		t.Fatalf("SUBMIT beside a held SUBMIT: %v", err)
	}
	if err := w.Grant(1); err != nil {
		t.Fatal(err)
	}
	n, ok := w.Next(ctx)
	if !ok {
		t.Fatalf("credited watch got nothing beside a held SUBMIT: %v", w.Err())
	}
	if len(n.Added) != 1 || n.Added[0][0] != "a2" {
		t.Fatalf("notification = %+v, want the async SUBMIT's row", n)
	}

	close(h.release)
	if err := <-synced; err != nil {
		t.Fatalf("released sync SUBMIT: %v", err)
	}
	if rows, _, err := c.Solutions(ctx, "paths", 0); err != nil || len(rows) != 2 {
		t.Fatalf("QUERY after release = %v, %v; want both rows", rows, err)
	}
}

// TestConnGoroutinesDoNotLeak: every goroutine a connection starts — reader,
// writer, resident worker, busy-case handlers, watch pumps, and the client's
// read loop — is gone after Client.Close, and the server's after
// Server.Close, even with a connection still open.
func TestConnGoroutinesDoNotLeak(t *testing.T) {
	s, err := live.NewStore(context.Background(), nil, cq.Database{}, live.Config{History: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ctx := context.Background()
	settle := func(what string, want int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > want; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%s: %d goroutines, want at most %d\n%s",
					what, runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}

	base := runtime.NumGoroutine()
	srv, addr := serve(t, s, "")
	serving := base + 1 // the accept loop
	// use opens a client, drives every request type on it, several at once
	// so some find the worker busy, and leaves a watch stream open.
	use := func(round int) *Client {
		c, err := Dial(addr, ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprint("q", round)
		if _, err := c.Register(ctx, name, "R(x,y), S(y,z)"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Watch(ctx, name, WatchOptions{}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				if _, _, err := c.Submit(ctx, pairDelta(10*round+k), true); err != nil {
					t.Error(err)
				}
				if _, _, err := c.Solutions(ctx, name, 0); err != nil {
					t.Error(err)
				}
				if _, err := c.Stats(ctx); err != nil {
					t.Error(err)
				}
			}(k)
		}
		wg.Wait()
		return c
	}
	for round := 0; round < 3; round++ {
		use(round).Close()
		settle(fmt.Sprintf("round %d after Client.Close", round), serving)
	}
	use(3) // left open: Server.Close must end it from its side
	srv.Close()
	settle("after Server.Close", base)
}
