package live

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// These tests hold the change-driven stage to its contract: a flush visits
// the queries reading a relation of its batch and no others — in work, in
// allocations and in what it keeps alive.

// disjointStore registers n two-atom path queries q0000, q0001, … over
// relations of their own (q<i>_a(x,y), q<i>_b(y,z), rows tuples each), every
// one watched, and returns the store.
func disjointStore(tb testing.TB, n, rows int) *Store {
	tb.Helper()
	ctx := context.Background()
	db := cq.Database{}
	for i := 0; i < n; i++ {
		for r := 0; r < rows; r++ {
			db.Add(fmt.Sprintf("q%04d_a", i), fmt.Sprint("x", r), fmt.Sprint("y", r))
			db.Add(fmt.Sprintf("q%04d_b", i), fmt.Sprint("y", r), fmt.Sprint("z", r))
		}
	}
	s, err := NewStore(ctx, nil, db, Config{History: 4})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("q%04d", i)
		q, err := cq.ParseQuery(fmt.Sprintf("%s_a(x,y), %s_b(y,z)", name, name))
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Register(ctx, name, q); err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Watch(name); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// toggle flushes one tuple of query i's first relation out (even k) or back
// in (odd k): every flush changes exactly that query's result by one row.
func toggle(tb testing.TB, s *Store, i, k int) {
	d := storage.NewDelta()
	if rel := fmt.Sprintf("q%04d_a", i); k%2 == 0 {
		d.Remove(rel, "x0", "y0")
	} else {
		d.Add(rel, "x0", "y0")
	}
	if err := s.Submit(d); err != nil {
		tb.Fatal(err)
	}
	if err := s.Flush(context.Background()); err != nil {
		tb.Fatal(err)
	}
}

// TestStageVisitsOnlyReaders: one submit into a relation two queries share
// stages both, each once, in name order, and nobody else; a batch listing two
// relations of one query stages it once; a query registered after a relation
// was last touched is staged on that relation's next change; and every staged
// query ends up where a from-scratch evaluation puts it.
func TestStageVisitsOnlyReaders(t *testing.T) {
	ctx := context.Background()
	db := cq.Database{}
	db.Add("R", "a", "b")
	db.Add("S", "b", "c")
	db.Add("T", "c", "d")
	db.Add("U", "u", "v")
	s, err := NewStore(ctx, nil, db, Config{History: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	register := func(name, src string) *Subscription {
		t.Helper()
		q, err := cq.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(ctx, name, q); err != nil {
			t.Fatal(err)
		}
		sub, err := s.Watch(name)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	// Registered out of name order on purpose.
	subST := register("m_st", "S(y,z), T(z,w)")
	subRS := register("b_rs", "R(x,y), S(y,z)")
	subU := register("z_u", "U(p,q)")

	flush := func(d *storage.Delta) (staged uint64, rebinds uint64) {
		t.Helper()
		before := s.Stats()
		if err := s.Submit(d); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		after := s.Stats()
		return after.Flush.StagedQueries - before.Flush.StagedQueries, after.Engine.Rebinds - before.Engine.Rebinds
	}
	count := func(name string) int64 {
		t.Helper()
		n, _, err := s.Count(name)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	// S is read by b_rs and m_st: both staged, both notified, z_u untouched.
	if staged, rebinds := flush(storage.NewDelta().Add("S", "b", "c2")); staged != 2 || rebinds != 2 {
		t.Fatalf("a submit into S staged %d queries with %d rebinds, want 2 and 2", staged, rebinds)
	}
	if n := awaitNext(t, subRS); n.Query != "b_rs" || len(n.Added) != 1 {
		t.Fatalf("b_rs notification: %+v", n)
	}
	// (b,c2) joins nothing in T: m_st is staged, but its result is unchanged.
	if n, ok := subST.TryNext(); ok {
		t.Fatalf("m_st was notified of an unchanged result: %+v", n)
	}
	if _, ok := subU.TryNext(); ok {
		t.Fatal("z_u was notified by a submit into S")
	}
	if count("b_rs") != 2 || count("m_st") != 1 || count("z_u") != 1 {
		t.Fatalf("counts after S insert: b_rs=%d m_st=%d z_u=%d, want 2, 1, 1", count("b_rs"), count("m_st"), count("z_u"))
	}
	// One batch over both of b_rs's relations: b_rs once, m_st once.
	if staged, _ := flush(storage.NewDelta().Add("R", "a2", "b").Remove("S", "b", "c2")); staged != 2 {
		t.Fatalf("a batch over R and S staged %d queries, want 2 (each reader once)", staged)
	}
	// A relation nobody reads: nothing staged, the version still moves.
	v := s.Version()
	if staged, rebinds := flush(storage.NewDelta().Add("Noise", "n")); staged != 0 || rebinds != 0 || s.Version() != v+1 {
		t.Fatalf("a submit into an unread relation staged %d queries (%d rebinds), version %d → %d", staged, rebinds, v, s.Version())
	}
	// Registered after T was last touched (never, here): the index has it
	// from registration on, so T's next change reaches it.
	subT := register("a_t", "T(c,d)")
	if staged, _ := flush(storage.NewDelta().Add("T", "c", "d2")); staged != 2 {
		t.Fatalf("a submit into T staged %d queries, want 2 (m_st and the late a_t)", staged)
	}
	if n := awaitNext(t, subT); n.Query != "a_t" || n.Count != 2 {
		t.Fatalf("a_t notification: %+v", n)
	}
	if n := awaitNext(t, subST); n.Query != "m_st" || n.Count != 2 {
		t.Fatalf("m_st notification after the T insert: %+v", n)
	}
	rows, _, err := s.Solutions(ctx, "b_rs", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowKeys(rows), rowKeys([][]string{{"a", "b", "c"}, {"a2", "b", "c"}}); !slices.Equal(got, want) {
		t.Fatalf("b_rs solutions %q, want %q", got, want)
	}
}

// TestUnstagedQueryDoesNotPinSnapshot: a query whose relations are left alone
// for 10 000 flushes of another query's relation does not keep the database
// snapshot of its last staging alive — it is bound to that snapshot cut down
// to its own relations, so the 10 000 superseded versions of everything else
// are garbage. Before the stage was change-driven every flush moved every
// query to the newest snapshot; skipping untouched queries must not turn into
// holding on to old ones.
func TestUnstagedQueryDoesNotPinSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("10 000 flushes")
	}
	s := disjointStore(t, 2, 64)
	toggle(t, s, 0, 0) // stage query 0 one last time
	var collected atomic.Bool
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		// The snapshot query 0 was last staged at.
		runtime.AddCleanup(s.cdb, func(struct{}) { collected.Store(true) }, struct{}{})
	}()
	for k := 0; k < 10_000; k++ {
		toggle(t, s, 1, k)
	}
	for i := 0; i < 100 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("the snapshot of query 0's last staging is still reachable after 10 000 flushes that never touched it")
	}
	// And query 0 still answers, and still follows its own relations.
	if n, _, err := s.Count("q0000"); err != nil || n != 63 {
		t.Fatalf("q0000 count = %d, %v; want 63", n, err)
	}
	toggle(t, s, 0, 1)
	if n, _, err := s.Count("q0000"); err != nil || n != 64 {
		t.Fatalf("q0000 count after restoring its tuple = %d, %v; want 64", n, err)
	}
}

// TestFlushAllocsFlatInRegistry: one flush that changes one query allocates
// the same with 8 registered queries as with 1 024 — nothing on the path from
// Submit to commit walks, copies or sizes anything by the registry (the
// relation directory deepens logarithmically, which is all that may show).
func TestFlushAllocsFlatInRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 1 024 queries")
	}
	allocs := func(n int) float64 {
		s := disjointStore(t, n, 8)
		k := 0
		for ; k < 4; k++ { // the first maintenance converts the touched query's state, once
			toggle(t, s, n/2, k)
		}
		return testing.AllocsPerRun(200, func() {
			toggle(t, s, n/2, k)
			k++
		})
	}
	few, mid, many := allocs(8), allocs(64), allocs(1024)
	t.Logf("allocations per single-query flush: %.1f with 8 registered queries, %.1f with 64, %.1f with 1 024", few, mid, many)
	// 2 048 relations put one more level into the relation directory's trie
	// than 16 do: one more node (with its three slices) on Apply's path copy.
	if many > few+4 {
		t.Fatalf("per-flush allocations grew from %.1f to %.1f with the registry", few, many)
	}
	// The ceiling keeps the count itself from creeping back up: an enum
	// node no row of which changes membership allocates no delta.
	if few > 187 {
		t.Fatalf("a one-tuple flush allocates %.1f times, want at most 187", few)
	}
}

// BenchmarkFlushRegistry is one flush — Submit of one tuple, Apply, stage,
// commit, broadcast — that reaches exactly one of n registered, watched
// queries over disjoint relations. It costs the same at every n.
func BenchmarkFlushRegistry(b *testing.B) {
	for _, n := range []int{1, 8, 64, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s := disjointStore(b, n, 64)
			toggle(b, s, n/2, 0)
			toggle(b, s, n/2, 1)
			before := s.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				toggle(b, s, n/2, k)
			}
			b.StopTimer()
			after := s.Stats()
			if got := after.Flush.StagedQueries - before.Flush.StagedQueries; got != uint64(b.N) {
				b.Fatalf("%d flushes staged %d queries, want one each", b.N, got)
			}
		})
	}
}
