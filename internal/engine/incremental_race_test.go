package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// TestIncrementalConcurrentReaders drives Bool/Count/Enumerate from many
// goroutines against the original snapshot, an early maintained snapshot and
// the latest published one, while a writer chains 1000 Updates (which Apply
// deltas and intern new constants into the shared dictionary). Run under
// -race; the invariants checked are (a) the original BoundQuery's answers
// never change, (b) neither do those of the early snapshot — whose persistent
// maps every later snapshot shares structure with and patches successors of —
// while it is being enumerated throughout, and (c) every published snapshot
// is internally consistent (Count equals the number of enumerated solutions).
func TestIncrementalConcurrentReaders(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	q, err := cq.ParseQuery("R(a,b), S(b,c), T(c,d)")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	for i := 0; i < 30; i++ {
		db.Add("R", fmt.Sprint(i%6), fmt.Sprint((i+1)%6))
		db.Add("S", fmt.Sprint(i%6), fmt.Sprint((i+2)%6))
		db.Add("T", fmt.Sprint(i%6), fmt.Sprint((i+3)%6))
	}
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	origCount, err := orig.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var latest, early atomic.Pointer[BoundQuery]
	latest.Store(orig)
	const rounds = 1000
	earlyReady, writerDone := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup

	// Writer: chain Updates, alternating inserts (some with brand-new
	// constants, forcing dictionary appends) and deletes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		cur := orig
		for i := 0; i < rounds; i++ {
			d := storage.NewDelta()
			switch i % 3 {
			case 0:
				d.Add("R", fmt.Sprintf("new%d", i), fmt.Sprint(i%6))
			case 1:
				d.Add("S", fmt.Sprint(i%6), fmt.Sprint((i*7)%6)).Remove("T", fmt.Sprint(i%6), fmt.Sprint((i+3)%6))
			default:
				d.Remove("R", fmt.Sprint(i%6), fmt.Sprint((i+1)%6))
			}
			next, err := cur.Update(ctx, d)
			if err != nil {
				t.Error("Update:", err)
				return
			}
			cur = next
			latest.Store(cur)
			if i == 0 {
				early.Store(cur)
				close(earlyReady)
			}
		}
	}()

	// Readers enumerating the early maintained snapshot for as long as the
	// writer keeps deriving successors from its structure.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-earlyReady:
			case <-writerDone: // the writer failed before publishing one
				return
			}
			b := early.Load()
			want := int64(-1)
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				n, err := b.Count(ctx)
				if err != nil {
					t.Error("early Count:", err)
					return
				}
				var streamed int64
				if err := b.Enumerate(ctx, func(Solution) bool { streamed++; return true }); err != nil {
					t.Error("early Enumerate:", err)
					return
				}
				if want < 0 {
					want = n
				}
				if n != want || streamed != want {
					t.Errorf("early snapshot moved: Count %d, Enumerate %d, first seen %d", n, streamed, want)
					return
				}
			}
		}()
	}

	// Readers over the frozen original snapshot: answers must never move.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n, err := orig.Count(ctx)
				if err != nil {
					t.Error("orig Count:", err)
					return
				}
				if n != origCount {
					t.Errorf("original snapshot count moved: %d -> %d", origCount, n)
					return
				}
				ok, err := orig.Bool(ctx)
				if err != nil || ok != (origCount > 0) {
					t.Errorf("orig Bool = %v, %v", ok, err)
					return
				}
			}
		}()
	}

	// Readers over whatever snapshot is latest: internal consistency.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b := latest.Load()
				n, err := b.Count(ctx)
				if err != nil {
					t.Error("latest Count:", err)
					return
				}
				var streamed int64
				err = b.Enumerate(ctx, func(Solution) bool {
					streamed++
					return true
				})
				if err != nil {
					t.Error("latest Enumerate:", err)
					return
				}
				if streamed != n {
					t.Errorf("snapshot inconsistent: Count %d, Enumerate %d", n, streamed)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Final differential check: the writer's last snapshot agrees with a
	// recompile of the same logical database.
	final := latest.Load()
	mirror := db.Clone()
	for i := 0; i < rounds; i++ {
		step := diffStep{}
		switch i % 3 {
		case 0:
			step = append(step, diffOp{insert: true, rel: "R", tuple: []string{fmt.Sprintf("new%d", i), fmt.Sprint(i % 6)}})
		case 1:
			step = append(step,
				diffOp{insert: true, rel: "S", tuple: []string{fmt.Sprint(i % 6), fmt.Sprint((i * 7) % 6)}},
				diffOp{insert: false, rel: "T", tuple: []string{fmt.Sprint(i % 6), fmt.Sprint((i + 3) % 6)}})
		default:
			step = append(step, diffOp{insert: false, rel: "R", tuple: []string{fmt.Sprint(i % 6), fmt.Sprint((i + 1) % 6)}})
		}
		applyMirror(mirror, step)
	}
	refCDB, err := eng.CompileDB(ctx, mirror)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prep.Bind(ctx, refCDB)
	if err != nil {
		t.Fatal(err)
	}
	if desc := compareBound(ctx, final, ref); desc != "" {
		t.Fatalf("final snapshot diverged from recompile: %s", desc)
	}
}

// TestApplyConcurrentWithReaders exercises CompiledDB.Apply + Rebind sharing
// one new snapshot across two bound queries while readers hammer the old
// ones.
func TestApplyConcurrentWithReaders(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	pathQ, err := cq.ParseQuery("R(a,b), S(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	triQ, err := cq.ParseQuery("R(x,y), R(y,z), R(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	pathPrep, err := eng.Prepare(ctx, pathQ)
	if err != nil {
		t.Fatal(err)
	}
	triPrep, err := eng.Prepare(ctx, triQ)
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	for i := 0; i < 12; i++ {
		db.Add("R", fmt.Sprint(i%5), fmt.Sprint((i+1)%5))
		db.Add("S", fmt.Sprint(i%5), fmt.Sprint((i+2)%5))
	}
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	pathB, err := pathPrep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	triB, err := triPrep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, b := range []*BoundQuery{pathB, triB} {
		b := b
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := b.Count(ctx); err != nil {
					t.Error(err)
					return
				}
				if _, err := b.Bool(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// One Apply per round, both queries Rebind to the shared snapshot.
	for i := 0; i < 60; i++ {
		d := storage.NewDelta().Add("R", fmt.Sprint(i%5), fmt.Sprint((i*3)%5))
		ncdb, err := cdb.Apply(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		if pathB, err = pathB.Rebind(ctx, ncdb); err != nil {
			t.Fatal(err)
		}
		if triB, err = triB.Rebind(ctx, ncdb); err != nil {
			t.Fatal(err)
		}
		cdb = ncdb
	}
	close(stop)
	wg.Wait()
	// Cross-check the two rebound queries against fresh binds.
	for _, pair := range []struct {
		prep *PreparedQuery
		inc  *BoundQuery
	}{{pathPrep, pathB}, {triPrep, triB}} {
		ref, err := pair.prep.Bind(ctx, cdb)
		if err != nil {
			t.Fatal(err)
		}
		if desc := compareBound(ctx, pair.inc, ref); desc != "" {
			t.Fatalf("rebound query diverged: %s", desc)
		}
	}
}

// TestParallelEnumerateOldSnapshotDuringUpdates streams concurrent
// enumerations from a frozen snapshot — and from whatever snapshot is
// latest — while a writer chains Updates. Run under -race: enumeration state
// lives in the immutable per-snapshot enumState, so old streams must keep
// producing their snapshot's answers untouched.
func TestParallelEnumerateOldSnapshotDuringUpdates(t *testing.T) {
	ctx := context.Background()
	orig := pathFixture(t)
	origRel, origDict, err := orig.EnumerateAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var latest struct {
		sync.Mutex
		b *BoundQuery
	}
	latest.b = orig
	var wg sync.WaitGroup
	// Writer: chain Updates (inserting fresh constants, deleting old rows)
	// while the readers stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := orig
		for i := 0; i < 60; i++ {
			d := storage.NewDelta()
			if i%2 == 0 {
				d.Add("R", fmt.Sprintf("w%d", i), fmt.Sprint(i%8))
			} else {
				d.Remove("T", fmt.Sprint(i%5), fmt.Sprint(i%40)).Add("S", fmt.Sprint(i%8), fmt.Sprint(i%5))
			}
			next, err := cur.Update(ctx, d)
			if err != nil {
				t.Error("Update:", err)
				return
			}
			cur = next
			latest.Lock()
			latest.b = cur
			latest.Unlock()
		}
	}()
	// Readers over the frozen snapshot: the stream must always reproduce the
	// original answer relation.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				rel, dict, err := orig.EnumerateAll(ctx)
				if err != nil {
					t.Error("orig EnumerateAll:", err)
					return
				}
				if !EqualRelations(rel, dict, origRel, origDict) {
					t.Error("frozen snapshot's enumeration changed under concurrent updates")
					return
				}
			}
		}()
	}
	// Readers over the latest snapshot: internal consistency only.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			latest.Lock()
			b := latest.b
			latest.Unlock()
			n, err := b.Count(ctx)
			if err != nil {
				t.Error("latest Count:", err)
				return
			}
			var streamed int64
			if err := b.Enumerate(ctx, func(Solution) bool { streamed++; return true }); err != nil {
				t.Error("latest Enumerate:", err)
				return
			}
			if streamed != n {
				t.Errorf("latest snapshot inconsistent: Count %d, Enumerate %d", n, streamed)
				return
			}
		}
	}()
	wg.Wait()
}
