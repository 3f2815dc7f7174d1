package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func collect(t *testing.T, b Backend, from uint64) []Record {
	t.Helper()
	var out []Record
	if err := Replay(b, from, func(r Record) error {
		out = append(out, Record{LSN: r.LSN, Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// TestAppendReplayRoundTrip: records come back in order with their LSNs,
// types, and payloads intact, across a close/reopen cycle and from any
// starting cursor.
func TestAppendReplayRoundTrip(t *testing.T) {
	for _, backend := range []Backend{NewMem(), mustFS(t)} {
		l, err := Open(backend, Options{Mode: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		var want []Record
		for i := 0; i < 20; i++ {
			payload := []byte(fmt.Sprintf("payload-%d", i))
			lsn, err := l.Append(byte(i%3), payload)
			if err != nil {
				t.Fatal(err)
			}
			if lsn != uint64(i+1) {
				t.Fatalf("append %d: lsn %d, want %d", i, lsn, i+1)
			}
			want = append(want, Record{LSN: lsn, Type: byte(i % 3), Payload: payload})
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got := collect(t, backend, 0)
		assertRecords(t, got, want)
		// Replay from a mid-log cursor yields exactly the suffix.
		assertRecords(t, collect(t, backend, 11), want[10:])
		// Reopen continues the LSN sequence.
		l, err = Open(backend, Options{Mode: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		if got := l.NextLSN(); got != 21 {
			t.Fatalf("NextLSN after reopen = %d, want 21", got)
		}
		lsn, err := l.Append(9, []byte("after"))
		if err != nil || lsn != 21 {
			t.Fatalf("append after reopen: lsn %d, err %v", lsn, err)
		}
		l.Close()
		assertRecords(t, collect(t, backend, 21), []Record{{LSN: 21, Type: 9, Payload: []byte("after")}})
	}
}

func assertRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func mustFS(tb testing.TB) *FS {
	tb.Helper()
	fs, err := NewFS(filepath.Join(tb.TempDir(), "wal"))
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// TestSegmentRotation: the log starts a new segment at every checkpoint and
// at Open, never by size; every record stays reachable across segments, and
// once pruning has dropped the log's head, replay from before the remaining
// log's start is refused instead of skipping the records it lost.
func TestSegmentRotation(t *testing.T) {
	backend := NewMem()
	l, err := Open(backend, Options{Mode: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	payload := bytes.Repeat([]byte("large-payload-"), 1<<10) // 14 KiB a record
	for i := 0; i < 25; i++ {
		lsn, err := l.Append(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Record{LSN: lsn, Type: 1, Payload: payload})
		if lsn == 10 {
			if err := l.WriteCheckpoint(lsn, func(w io.Writer) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The checkpoint at 10 sealed segment 1 (records 1–10, which it also
	// made redundant) and started segment 11, which took the other 15
	// records however large they grew.
	segs, _ := backend.ListSegments()
	if !slices.Equal(segs, []uint64{11}) {
		t.Fatalf("segments %v, want [11]", segs)
	}
	if got := l.ActiveBytes(); got != 15*int64(frameHeader+bodyHeader+len(payload)) {
		t.Fatalf("ActiveBytes = %d, want the 15 records since the checkpoint", got)
	}
	assertRecords(t, collect(t, backend, 11), want[10:])
	assertRecords(t, collect(t, backend, 15), want[14:])
	l.Close()

	// Open starts a segment of its own; the next checkpoint seals it.
	l, err = Open(backend, Options{Mode: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, []byte("after-open")); err != nil {
		t.Fatal(err)
	}
	want = append(want, Record{LSN: 26, Type: 1, Payload: []byte("after-open")})
	if segs, _ = backend.ListSegments(); !slices.Equal(segs, []uint64{11, 26}) {
		t.Fatalf("segments after reopen %v, want [11 26]", segs)
	}
	for _, lsn := range []uint64{26, 26} { // the second one has no record to seal
		if err := l.WriteCheckpoint(lsn, func(w io.Writer) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoints [10 26] keep segment 11, which the older one needs.
	if segs, _ = backend.ListSegments(); !slices.Equal(segs, []uint64{11, 26, 27}) {
		t.Fatalf("segments after checkpoints at 26 %v, want [11 26 27]", segs)
	}
	assertRecords(t, collect(t, backend, 11), want[10:])
	err = Replay(backend, 0, func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "needs LSN 1, but the log starts at LSN 11") {
		t.Fatalf("replay from before the log's start: err %v", err)
	}
}

// TestTornTailRecovery: appending garbage or a truncated frame to the live
// segment loses only the torn record; reopen resumes at lastValid+1 and the
// new records chain cleanly past the old segment's dead tail.
func TestTornTailRecovery(t *testing.T) {
	for _, tear := range []string{"garbage", "truncated-frame", "corrupt-crc"} {
		t.Run(tear, func(t *testing.T) {
			backend := NewMem()
			l, err := Open(backend, Options{Mode: SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			var want []Record
			for i := 0; i < 5; i++ {
				payload := []byte(fmt.Sprintf("p%d", i))
				lsn, _ := l.Append(2, payload)
				want = append(want, Record{LSN: lsn, Type: 2, Payload: payload})
			}
			l.Close()

			segs, _ := backend.ListSegments()
			seg := backend.segs[segs[len(segs)-1]]
			switch tear {
			case "garbage":
				seg.Write([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
			case "truncated-frame":
				// A full frame chopped mid-payload.
				full := seg.Bytes()
				frame := append([]byte(nil), full[len(full)-20:]...)
				seg.Write(frame[:len(frame)-7])
			case "corrupt-crc":
				full := seg.Bytes()
				full[len(full)-1] ^= 0xff
				want = want[:len(want)-1] // the flipped byte killed the last record
			}

			assertRecords(t, collect(t, backend, 0), want)
			l, err = Open(backend, Options{Mode: SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			next := want[len(want)-1].LSN + 1
			if got := l.NextLSN(); got != next {
				t.Fatalf("NextLSN = %d, want %d", got, next)
			}
			lsn, err := l.Append(3, []byte("resumed"))
			if err != nil || lsn != next {
				t.Fatalf("append after tear: lsn %d err %v, want %d", lsn, err, next)
			}
			l.Close()
			want = append(want, Record{LSN: next, Type: 3, Payload: []byte("resumed")})
			assertRecords(t, collect(t, backend, 0), want)
		})
	}
}

// TestCheckpointLifecycle: WriteCheckpoint publishes atomically-readable
// blobs, keeps the newest two, garbage-collects the
// segments the oldest kept one covers, and refuses an LSN that is not the
// log's last record.
func TestCheckpointLifecycle(t *testing.T) {
	backend := NewMem()
	l, err := Open(backend, Options{Mode: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
		if (i+1)%10 == 0 {
			lsn := uint64(i + 1)
			err := l.WriteCheckpoint(lsn, func(w io.Writer) error {
				_, err := fmt.Fprintf(w, "state-through-%d", lsn)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	ckpts, _ := backend.ListCheckpoints()
	if !slices.Equal(ckpts, []uint64{20, 30}) {
		t.Fatalf("checkpoints = %v, want [20 30]", ckpts)
	}
	rc, err := backend.OpenCheckpoint(30)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(rc)
	rc.Close()
	if string(blob) != "state-through-30" {
		t.Fatalf("checkpoint blob = %q", blob)
	}
	// GC: one segment per checkpoint interval; the one the oldest kept
	// checkpoint (20) covers is gone, every record beyond it survives.
	if segs, _ := backend.ListSegments(); !slices.Equal(segs, []uint64{21, 31}) {
		t.Fatalf("segments = %v, want [21 31]", segs)
	}
	got := collect(t, backend, 21)
	if len(got) != 10 || got[0].LSN != 21 {
		t.Fatalf("post-GC replay from 21: %d records starting at %d", len(got), got[0].LSN)
	}
	st, err := l.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints != 2 || st.LastCheckpointLSN != 30 || st.NextLSN != 31 || st.Segments != 2 || st.LogBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := l.WriteCheckpoint(29, func(io.Writer) error { return nil }); err == nil {
		t.Fatal("checkpoint at 29 accepted with record 30 appended")
	}
	l.Close()
}

// TestNewFSRemovesCheckpointTemp: the temp file of a checkpoint a crash
// interrupted is removed when the directory is next opened; published
// checkpoints, segments and foreign files stay.
func TestNewFSRemovesCheckpointTemp(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(fs, Options{Mode: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(1, func(w io.Writer) error { _, err := io.WriteString(w, "ckpt"); return err }); err != nil {
		t.Fatal(err)
	}
	l.Close()
	for _, name := range []string{"ckpt-tmp-123", "ckpt-tmp-456", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewFS(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"ckpt-00000000000000000001.snap", "notes.txt", "wal-00000000000000000002.log"}
	if !slices.Equal(names, want) {
		t.Fatalf("directory after reopen = %v, want %v", names, want)
	}
}

// TestMemClone: a clone is independent — appends to the original do not leak
// into the clone, which behaves like a crash image frozen at clone time.
func TestMemClone(t *testing.T) {
	backend := NewMem()
	l, _ := Open(backend, Options{Mode: SyncOff})
	l.Append(1, []byte("before"))
	snap := backend.Clone()
	l.Append(1, []byte("after"))
	l.Close()
	if got := collect(t, snap, 0); len(got) != 1 || string(got[0].Payload) != "before" {
		t.Fatalf("clone sees %v", got)
	}
	if got := collect(t, backend, 0); len(got) != 2 {
		t.Fatalf("original sees %d records, want 2", len(got))
	}
	// The clone reopens like any crashed store.
	l2, err := Open(snap, Options{Mode: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if l2.NextLSN() != 2 {
		t.Fatalf("clone NextLSN = %d, want 2", l2.NextLSN())
	}
	l2.Close()
}

// TestClosedLogErrors: every mutating call on a closed log fails with
// ErrClosed; double Close is a no-op.
func TestClosedLogErrors(t *testing.T) {
	l, _ := Open(NewMem(), Options{Mode: SyncOff})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := l.Append(1, nil); err != ErrClosed {
		t.Fatalf("append on closed: %v", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("sync on closed: %v", err)
	}
	if err := l.TruncateBefore(1); err != ErrClosed {
		t.Fatalf("truncate on closed: %v", err)
	}
}

// TestSyncIntervalLifecycle: an interval-mode log starts and stops its
// background syncer cleanly and still persists everything on Close.
func TestSyncIntervalLifecycle(t *testing.T) {
	backend := mustFS(t)
	l, err := Open(backend, Options{Mode: SyncInterval, Interval: 1e6 /* 1ms */})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, []byte("tick")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, backend, 0); len(got) != 10 {
		t.Fatalf("replay after interval-mode close: %d records, want 10", len(got))
	}
}

// BenchmarkWALAppend is one Append of a 64-byte record — about one
// single-tuple delta — to a file-backed log under each fsync policy:
// SyncAlways pays an fsync per append, SyncInterval (default period) and
// SyncOff only the write.
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 64)
	for _, mode := range []SyncMode{SyncAlways, SyncInterval, SyncOff} {
		b.Run(mode.String(), func(b *testing.B) {
			l, err := Open(mustFS(b), Options{Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(1, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
