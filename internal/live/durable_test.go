package live

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
	"d2cq/internal/storage"
	"d2cq/internal/wal"
)

// durableConfig is the durable stores' test config: ample history and
// buffers, no fsync.
func durableConfig(backend wal.Backend) DurableConfig {
	return DurableConfig{
		Config:   Config{History: 256},
		Backend:  backend,
		SyncMode: wal.SyncOff,
	}
}

var durSeed = flag.Int64("durseed", 17, "seed of the durable crash-recovery differential's stream")

func mustQuery(t *testing.T, src string) cq.Query {
	t.Helper()
	q, err := cq.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// normNotification makes notifications comparable across runs: the diff
// lists are order-normalised (they are sets).
func normNotification(n Notification) Notification {
	n.Lagged = 0
	sortRows := func(rows [][]string) [][]string {
		out := append([][]string(nil), rows...)
		sort.Slice(out, func(i, j int) bool {
			return storageKey(out[i]) < storageKey(out[j])
		})
		return out
	}
	n.Added = sortRows(n.Added)
	n.Removed = sortRows(n.Removed)
	return n
}

func storageKey(tuple []string) string {
	k := ""
	for _, v := range tuple {
		k += v + "\x00"
	}
	return k
}

// cloneDelta copies a delta down to its tuple lists (the tuples themselves
// are never mutated), so a store holding a submitted delta shares no slice
// with the test that built it.
func cloneDelta(d *storage.Delta) *storage.Delta {
	out := storage.NewDelta()
	for rel, ts := range d.Insert {
		out.Insert[rel] = slices.Clone(ts)
	}
	for rel, ts := range d.Delete {
		out.Delete[rel] = slices.Clone(ts)
	}
	return out
}

func cloneAll(ds []*storage.Delta) []*storage.Delta {
	out := make([]*storage.Delta, len(ds))
	for i, d := range ds {
		out[i] = cloneDelta(d)
	}
	return out
}

func drain(sub *Subscription) []Notification {
	var out []Notification
	for {
		n, ok := sub.TryNext()
		if !ok {
			return out
		}
		out = append(out, normNotification(n))
	}
}

// ckptState strips a checkpoint blob down to its logical state: the bytes
// from the version field through the snapshot, excluding the covered LSN
// (which legitimately differs between a straight run and a crashed-and-
// recovered one) and the trailing CRC.
func ckptState(t *testing.T, backend wal.Backend) []byte {
	t.Helper()
	ckpts, err := backend.ListCheckpoints()
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no final checkpoint: %v", err)
	}
	rc, err := backend.OpenCheckpoint(ckpts[len(ckpts)-1])
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := blob[:len(blob)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(blob[len(blob)-4:]) {
		t.Fatal("final checkpoint fails its CRC")
	}
	return body[len(ckptMagic)+1+8:] // skip magic, format, LSN; keep version onward
}

// TestDurableCrashRecoveryDifferential is the crash-at-every-boundary
// differential: one reference store runs a recorded random stream of
// registrations and flushed batches to completion; for every flush boundary
// k, a clone of the backend frozen at that instant (what a SIGKILL would
// leave behind) is reopened, checked against the reference's state at
// version k+1, then driven through the remainder of the stream. The final
// state must be identical — query counts, store version, and the logical
// bytes of the final checkpoint — and a watcher reconnecting after the crash
// with its pre-crash cursor must receive exactly the reference's remaining
// notifications: none duplicated, none missing. Checkpoints fall mid-stream
// wherever the log outgrows the last one, so a boundary's image may recover
// from a mid-stream checkpoint over a truncated log.
//
// go test ./internal/live -run TestDurableCrashRecoveryDifferential -durseed N
func TestDurableCrashRecoveryDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(*durSeed))
	sh := watchShapes[0] // path: R,S,T (+Zed noise), all binary
	relNames := []string{"R", "S", "T", "Zed"}
	q1 := mustQuery(t, sh.query)                 // registered up front
	q2 := mustQuery(t, "R(x,y), S(x,z), T(x,w)") // star over the same schema, registered mid-stream
	const nFlush = 18
	const q2At = 5 // register q2 before flush index 5

	// Record the stream so every crashed run replays the identical input.
	script := make([][]*storage.Delta, nFlush)
	for i := range script {
		for j, n := 0, 1+rng.Intn(3); j < n; j++ {
			script[i] = append(script[i], genDelta(rng, sh, relNames))
		}
	}

	eng := engine.NewEngine() // shared: recovery cost stays prepare-cache-warm
	ctx := context.Background()

	// Reference run, cloning the backend at every flush boundary.
	refBackend := wal.NewMem()
	ref, err := Open(ctx, eng, durableConfig(refBackend))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Register(ctx, "path", q1); err != nil {
		t.Fatal(err)
	}
	refSub, err := ref.Watch("path")
	if err != nil {
		t.Fatal(err)
	}
	clones := make([]*wal.Mem, nFlush+1)
	counts := make([]map[string]int64, nFlush+1) // per boundary: query -> count
	snapCounts := func() map[string]int64 {
		out := map[string]int64{}
		for _, qi := range ref.Queries() {
			out[qi.Name] = qi.Count
		}
		return out
	}
	clones[0] = refBackend.Clone()
	counts[0] = snapCounts()
	for i := 0; i < nFlush; i++ {
		if i == q2At {
			if err := ref.Register(ctx, "star", q2); err != nil {
				t.Fatal(err)
			}
		}
		flushBatch(t, ref, cloneAll(script[i])...)
		clones[i+1] = refBackend.Clone()
		counts[i+1] = snapCounts()
	}
	refNotifs := drain(refSub)
	refFinalVersion := ref.Version()
	if refFinalVersion != nFlush+1 {
		t.Fatalf("reference version %d, want %d", refFinalVersion, nFlush+1)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	refFinal := ckptState(t, refBackend)
	if len(refNotifs) == 0 {
		t.Fatal("reference run produced no notifications; the stream is too tame to test anything")
	}

	for k := 0; k <= nFlush; k++ {
		s, err := Open(ctx, eng, durableConfig(clones[k]))
		if err != nil {
			t.Fatalf("crash at boundary %d: reopen: %v", k, err)
		}
		if got, want := s.Version(), uint64(k+1); got != want {
			t.Fatalf("crash at boundary %d: recovered version %d, want %d", k, got, want)
		}
		for name, want := range counts[k] {
			got, _, err := s.Count(name)
			if err != nil {
				t.Fatalf("crash at boundary %d: %v", k, err)
			}
			if got != want {
				t.Fatalf("crash at boundary %d: %s count %d, want %d", k, name, got, want)
			}
		}
		// Reconnect the pre-crash watcher at its exact cursor: everything it
		// already saw has Version <= k+1, so it must now receive precisely
		// the reference notifications beyond that — the replayed ring
		// satisfies any in-window backlog, the live stream the rest.
		sub, snap, err := s.Subscribe("path", uint64(k+1), true)
		if err != nil {
			t.Fatalf("crash at boundary %d: Subscribe: %v", k, err)
		}
		if !snap.Resumed {
			t.Fatalf("crash at boundary %d: cursor %d not resumable (floor should cover the whole run)", k, k+1)
		}
		for i := k; i < nFlush; i++ {
			if i == q2At {
				if err := s.Register(ctx, "star", q2); err != nil {
					t.Fatalf("crash at boundary %d: re-register star: %v", k, err)
				}
			}
			flushBatch(t, s, cloneAll(script[i])...)
		}
		if got := s.Version(); got != refFinalVersion {
			t.Fatalf("crash at boundary %d: final version %d, want %d", k, got, refFinalVersion)
		}
		for name, want := range counts[nFlush] {
			got, _, _ := s.Count(name)
			if got != want {
				t.Fatalf("crash at boundary %d: final %s count %d, want %d", k, name, got, want)
			}
		}
		got := drain(sub)
		var want []Notification
		for _, n := range refNotifs {
			if n.Version > uint64(k+1) {
				want = append(want, n)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("crash at boundary %d: resumed watcher saw %d notifications %+v\nwant %d: %+v",
				k, len(got), got, len(want), want)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("crash at boundary %d: close: %v", k, err)
		}
		if final := ckptState(t, clones[k]); !reflect.DeepEqual(final, refFinal) {
			t.Fatalf("crash at boundary %d: final checkpoint state diverges from the straight run (%d vs %d bytes)",
				k, len(final), len(refFinal))
		}
	}
}

// TestDurableTornTail cuts the crash image mid-record at arbitrary byte
// offsets: Open must always succeed, recover a clean prefix of the flush
// history (version between the checkpoint and the full run), and keep
// serving — the counts must match a pristine store fed exactly the surviving
// prefix of batches.
func TestDurableTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sh := watchShapes[0]
	relNames := []string{"R", "S", "T"}
	q1 := mustQuery(t, sh.query)
	const nFlush = 8

	eng := engine.NewEngine()
	ctx := context.Background()
	backend := wal.NewMem()
	s, err := Open(ctx, eng, durableConfig(backend))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ctx, "path", q1); err != nil {
		t.Fatal(err)
	}
	batches := make([]*storage.Delta, nFlush)
	for i := range batches {
		batches[i] = genDelta(rng, sh, relNames)
		if err := s.Submit(cloneDelta(batches[i])); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	img := backend.Clone()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := img.ListSegments()
	last := segs[len(segs)-1]
	full, _ := img.SegmentSize(last)
	for trial := 0; trial < 12; trial++ {
		torn := img.Clone()
		cut := int64(rng.Intn(int(full)))
		if err := torn.TruncateSegment(last, int(cut)); err != nil {
			t.Fatal(err)
		}

		re, err := Open(ctx, eng, durableConfig(torn))
		if err != nil {
			t.Fatalf("cut at %d/%d: open: %v", cut, full, err)
		}
		v := re.Version()
		if v < 1 || v > nFlush+1 {
			t.Fatalf("cut at %d: recovered version %d out of range", cut, v)
		}
		// A pristine store fed the surviving prefix must agree exactly.
		want, err := NewStore(ctx, eng, cq.Database{}, Config{History: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Register(ctx, "path", q1); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < v-1; i++ {
			if err := want.Submit(cloneDelta(batches[i])); err != nil {
				t.Fatal(err)
			}
			if err := want.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		gotCount, _, _ := re.Count("path")
		wantCount, _, _ := want.Count("path")
		if gotCount != wantCount {
			t.Fatalf("cut at %d: recovered count %d at version %d, pristine prefix says %d",
				cut, gotCount, v, wantCount)
		}
		want.Close()
		re.Close()
	}
}

// TestWatchFromWindow pins the cursor-window semantics on a plain in-memory
// store with a tiny history ring: in-window cursors resume with exactly the
// missed notifications, the floor advances as the ring evicts, out-of-window
// and future cursors report unresumable.
func TestWatchFromWindow(t *testing.T) {
	ctx := context.Background()
	s, err := NewStore(ctx, nil, cq.Database{}, Config{History: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register(ctx, "q", mustQuery(t, "R(x,y)")); err != nil {
		t.Fatal(err)
	}
	base := s.Version() - 1 // the store starts at version base+1
	// 6 changing flushes: versions base+2..base+7, each adding one tuple.
	var all []Notification
	for i := 0; i < 6; i++ {
		if err := s.Submit(storage.NewDelta().Add("R", "a", string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		all = append(all, Notification{Version: base + uint64(i+2)})
	}
	if got := s.Version(); got != base+7 {
		t.Fatalf("version = %d, want %d", got, base+7)
	}
	cases := []struct {
		from    uint64
		resumed bool
		missed  int
	}{
		{from: 7, resumed: true, missed: 0}, // current: nothing missed
		{from: 6, resumed: true, missed: 1}, // one behind
		{from: 4, resumed: true, missed: 3}, // exactly the whole ring
		{from: 3, resumed: false},           // evicted: floor passed it
		{from: 1, resumed: false},           // ancient
		{from: 42, resumed: false},          // future cursor: bogus
	}
	for _, tc := range cases {
		tc.from += base
		sub, snap, err := s.Subscribe("q", tc.from, true)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Resumed != tc.resumed {
			t.Fatalf("Subscribe(%d): resumed=%v, want %v", tc.from, snap.Resumed, tc.resumed)
		}
		got := drain(sub)
		if !tc.resumed {
			if len(got) != 0 {
				t.Fatalf("Subscribe(%d): unresumable cursor still got %d queued notifications", tc.from, len(got))
			}
			sub.Cancel()
			continue
		}
		if len(got) != tc.missed {
			t.Fatalf("Subscribe(%d): %d queued notifications, want %d", tc.from, len(got), tc.missed)
		}
		for i, n := range got {
			if want := tc.from + uint64(i) + 1; n.Version != want {
				t.Fatalf("Subscribe(%d): queued[%d].Version = %d, want %d (no gaps, no dupes)", tc.from, i, n.Version, want)
			}
		}
		sub.Cancel()
	}
	if len(all) != 6 {
		t.Fatalf("expected 6 change versions, got %d", len(all))
	}
}

// TestWatchFromEarlierStore: an in-memory store's versions are its own. A
// cursor handed out by an earlier store — a daemon's previous run — must not
// resume against a later one, however far the later one has advanced: its
// changes are not the ones the cursor's holder applied.
func TestWatchFromEarlierStore(t *testing.T) {
	ctx := context.Background()
	run := func(flushes int) *Store {
		s, err := NewStore(ctx, nil, cq.Database{}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(ctx, "q", mustQuery(t, "R(x,y)")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < flushes; i++ {
			if err := s.Submit(storage.NewDelta().Add("R", "a", string(rune('a'+i)))); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	first := run(3)
	cursor := first.Version()
	first.Close()

	second := run(6)
	defer second.Close()
	if v := second.Version(); v <= cursor {
		t.Fatalf("later store at version %d, not past the earlier store's %d", v, cursor)
	}
	sub, snap, err := second.Subscribe("q", cursor, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if snap.Resumed {
		t.Fatalf("cursor %d from an earlier store resumed against a later one", cursor)
	}
	if got := drain(sub); len(got) != 0 {
		t.Fatalf("unresumable cursor got %d queued notifications", len(got))
	}
}

// meteredBackend counts the bytes the log and the checkpoints write through
// it, independently of the store's own stats.
type meteredBackend struct {
	*wal.Mem
	mu         sync.Mutex
	logBytes   int64 // every segment byte written
	ckptBytes  int64 // every checkpoint byte written
	ckpts      int   // checkpoints written
	sinceCkpt  int64 // segment bytes written since the last checkpoint
	lastCkpt   int64 // the last checkpoint's bytes
	lastRecord int64 // the last segment write: one record frame
}

type meteredSegment struct {
	wal.SegmentWriter
	b *meteredBackend
}

func (s meteredSegment) Write(p []byte) (int, error) {
	n, err := s.SegmentWriter.Write(p)
	s.b.mu.Lock()
	s.b.logBytes += int64(n)
	s.b.sinceCkpt += int64(n)
	s.b.lastRecord = int64(n)
	s.b.mu.Unlock()
	return n, err
}

func (b *meteredBackend) CreateSegment(start uint64) (wal.SegmentWriter, error) {
	w, err := b.Mem.CreateSegment(start)
	return meteredSegment{w, b}, err
}

func (b *meteredBackend) WriteCheckpoint(lsn uint64, write func(io.Writer) error) error {
	cw := &crcWriter{} // for its count
	err := b.Mem.WriteCheckpoint(lsn, func(w io.Writer) error {
		cw.w = w
		return write(cw)
	})
	if err == nil {
		b.mu.Lock()
		b.ckptBytes += cw.n
		b.ckpts++
		b.sinceCkpt = 0
		b.lastCkpt = cw.n
		b.mu.Unlock()
	}
	return err
}

// TestCheckpointProportionalToLog pins the checkpoint schedule to the log's
// growth. Over a large state fed one-tuple flushes, checkpoints must not
// write more than the log does (plus the checkpoint the store opened on): a
// fixed flush cadence re-encodes the whole state every few flushes that log
// a few bytes each. Over a small state fed large flushes, the log since the
// last checkpoint must stay below that checkpoint's size plus one record: a
// fixed cadence lets it grow without bound.
func TestCheckpointProportionalToLog(t *testing.T) {
	ctx := context.Background()
	eng := engine.NewEngine()
	q := mustQuery(t, "R(x,y), S(y,z)")
	tuple := func(d *storage.Delta, prefix string, i int) {
		d.Add("R", fmt.Sprintf("%s%d", prefix, i), fmt.Sprintf("m%d", i%50))
		d.Add("S", fmt.Sprintf("m%d", i%50), fmt.Sprintf("%s%d", prefix, i))
	}

	t.Run("large-state-small-flushes", func(t *testing.T) {
		mem := wal.NewMem()
		s, err := Open(ctx, eng, durableConfig(mem))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(ctx, "q", q); err != nil {
			t.Fatal(err)
		}
		bulk := storage.NewDelta()
		for i := 0; i < 2000; i++ {
			tuple(bulk, "a", i)
		}
		flushBatch(t, s, bulk)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen on the checkpoint Close wrote: the log since then starts
		// empty, and that checkpoint is the one the store opened on.
		ckpts, _ := mem.ListCheckpoints()
		rc, err := mem.OpenCheckpoint(ckpts[len(ckpts)-1])
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(rc)
		rc.Close()
		opened := int64(len(blob))
		m := &meteredBackend{Mem: mem}
		s, err = Open(ctx, eng, durableConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 1500; i++ {
			d := storage.NewDelta()
			d.Add("R", fmt.Sprintf("b%d", i), fmt.Sprintf("m%d", i%50))
			flushBatch(t, s, d)
			m.mu.Lock()
			ckptBytes, logBytes := m.ckptBytes, m.logBytes
			m.mu.Unlock()
			if ckptBytes > logBytes+opened {
				t.Fatalf("flush %d: checkpoints wrote %d bytes, the log %d, the opening checkpoint was %d",
					i, ckptBytes, logBytes, opened)
			}
		}
		if m.ckpts < 2 {
			t.Fatalf("%d checkpoints over %d log bytes from an opening checkpoint of %d: the schedule never ran",
				m.ckpts, m.logBytes, opened)
		}
	})

	t.Run("small-state-large-flushes", func(t *testing.T) {
		m := &meteredBackend{Mem: wal.NewMem()}
		s, err := Open(ctx, eng, durableConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Register(ctx, "q", q); err != nil {
			t.Fatal(err)
		}
		// Each flush swaps one 100-tuple batch for the other: the state
		// stays one batch, each record holds two.
		for i := 0; i < 200; i++ {
			d := storage.NewDelta()
			in, out := "a", "b"
			if i%2 == 1 {
				in, out = out, in
			}
			for j := 0; j < 100; j++ {
				tuple(d, in, j)
				if i > 0 {
					d.Remove("R", fmt.Sprintf("%s%d", out, j), fmt.Sprintf("m%d", j%50))
					d.Remove("S", fmt.Sprintf("m%d", j%50), fmt.Sprintf("%s%d", out, j))
				}
			}
			flushBatch(t, s, d)
			m.mu.Lock()
			since, last, record := m.sinceCkpt, m.lastCkpt, m.lastRecord
			m.mu.Unlock()
			if since >= last+record {
				t.Fatalf("flush %d: %d log bytes since the last checkpoint of %d bytes (records of %d)",
					i, since, last, record)
			}
			if st := s.Stats().Durability; st.LogBytesSinceCheckpoint != since || st.LastCheckpointBytes != last {
				t.Fatalf("flush %d: stats report %d log bytes since a checkpoint of %d, the backend saw %d and %d",
					i, st.LogBytesSinceCheckpoint, st.LastCheckpointBytes, since, last)
			}
		}
	})
}

// TestOpenRefusesLogGap: a log whose oldest segment starts after the record
// recovery must replay from cannot recover the store. With every checkpoint
// gone, recovery needs the log from LSN 1, which truncation has dropped:
// Open must fail naming both LSNs and write nothing, rather than replay the
// tail onto an empty store and checkpoint that as the new base.
func TestOpenRefusesLogGap(t *testing.T) {
	ctx := context.Background()
	mem := wal.NewMem()
	s, err := Open(ctx, engine.NewEngine(), durableConfig(mem))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ctx, "q", mustQuery(t, "R(x,y)")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		flushBatch(t, s, storage.NewDelta().Add("R", "a", fmt.Sprint(i)))
	}
	img := mem.Clone() // a crash: no closing checkpoint
	s.Close()
	segs, _ := img.ListSegments()
	if len(segs) == 0 || segs[0] <= 1 {
		t.Fatalf("segments %v: the log was never truncated", segs)
	}
	ckpts, _ := img.ListCheckpoints()
	for _, c := range ckpts {
		if err := img.RemoveCheckpoint(c); err != nil {
			t.Fatal(err)
		}
	}
	_, err = Open(ctx, engine.NewEngine(), durableConfig(img))
	if want := fmt.Sprintf("needs LSN 1, but the log starts at LSN %d", segs[0]); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open over segments %v and no checkpoint: err %v, want one containing %q", segs, err, want)
	}
	after, _ := img.ListSegments()
	if ck, _ := img.ListCheckpoints(); len(ck) != 0 || !slices.Equal(after, segs) {
		t.Fatalf("failed Open wrote to the backend: checkpoints %v, segments %v -> %v", ck, segs, after)
	}
}
