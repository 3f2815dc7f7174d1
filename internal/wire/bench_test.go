package wire

import (
	"context"
	"fmt"
	"testing"

	"d2cq/internal/cq"
	"d2cq/internal/live"
	"d2cq/internal/storage"
)

// BenchmarkWireRoundTrip times one request's round trip over loopback TCP to
// a store holding a 3-atom path query over 5 000 rows per relation, watched
// by one stream: a 16-row QUERY, and a sync SUBMIT of one tuple, each a
// flush that notifies the watcher. The store is sized so that a flush runs
// at a real flush's stack depth, which is what a per-request goroutine pays
// to grow.
func BenchmarkWireRoundTrip(b *testing.B) {
	const rows = 5000
	ctx := context.Background()
	db := cq.Database{}
	for r := 0; r < rows; r++ {
		db.Add("R", fmt.Sprint("a", r), fmt.Sprint("b", r))
		db.Add("S", fmt.Sprint("b", r), fmt.Sprint("c", r))
		db.Add("T", fmt.Sprint("c", r), fmt.Sprint("d", r))
	}
	s, err := live.NewStore(ctx, nil, db, live.Config{History: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	_, addr := serve(b, s, "")
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	if _, err := c.Register(ctx, "path", "R(x,y), S(y,z), T(z,w)"); err != nil {
		b.Fatal(err)
	}
	w, err := c.Watch(ctx, "path", WatchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			if _, ok := w.Next(ctx); !ok {
				return
			}
		}
	}()

	b.Run("query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, _, err := c.Solutions(ctx, "path", 16)
			if err != nil || len(got) != 16 {
				b.Fatalf("QUERY = %d rows, %v; want 16", len(got), err)
			}
		}
	})
	k := 0 // across runs, so every SUBMIT flips the tuple
	b.Run("submit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i, k = i+1, k+1 {
			d := storage.NewDelta()
			if k%2 == 0 {
				d.Remove("R", "a0", "b0")
			} else {
				d.Add("R", "a0", "b0")
			}
			if _, _, err := c.Submit(ctx, d, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}
