package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/live"
	"d2cq/internal/wal"
	"d2cq/internal/wire"
)

// idEvent is one /watch SSE event with its id line — the resume cursor.
type idEvent struct {
	kind string
	id   string
	data string
}

// watchFrom opens /watch with an optional Last-Event-ID header and streams
// parsed events (including id lines) until cancelled.
func watchFrom(t *testing.T, baseURL, name, lastEventID string) (<-chan idEvent, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/watch?query="+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/watch status = %d", resp.StatusCode)
	}
	events := make(chan idEvent, 32)
	go func() {
		defer resp.Body.Close()
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var ev idEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "id: "):
				ev.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			case line == "" && ev.kind != "":
				events <- ev
				ev = idEvent{}
			}
		}
	}()
	return events, cancel
}

func awaitIDEvent(t *testing.T, events <-chan idEvent, kind string) idEvent {
	t.Helper()
	select {
	case ev, ok := <-events:
		if !ok {
			t.Fatalf("watch stream closed while waiting for %q", kind)
		}
		if ev.kind != kind {
			t.Fatalf("event kind = %q (%s), want %q", ev.kind, ev.data, kind)
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatalf("no %q event within 5s", kind)
		return idEvent{}
	}
}

// copyDir clones a data directory byte-for-byte — the crash image a SIGKILL
// would leave (the daemon runs -fsync always here, so everything applied is
// on disk; no final checkpoint is written, exactly like a real crash).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func openDurable(t *testing.T, dir string) *live.Store {
	t.Helper()
	backend, err := wal.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	store, err := live.Open(context.Background(), nil, live.DurableConfig{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// registerAndUpdate registers "paths" over the daemon at baseURL and posts
// three sync updates: versions 2, 3 and 4, each changing the result.
func registerAndUpdate(t *testing.T, baseURL string) {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/query", map[string]any{
		"name": "paths", "query": "R(x,y), S(y,z)",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query status = %d: %s", resp.StatusCode, body)
	}
	for _, up := range []map[string]any{
		{"insert": map[string][][]string{"R": {{"a", "b"}}, "S": {{"b", "c1"}}}},
		{"insert": map[string][][]string{"S": {{"b", "c2"}}}},
		{"delete": map[string][][]string{"S": {{"b", "c1"}}}},
	} {
		if resp, body := postJSON(t, baseURL+"/update?sync=1", up); resp.StatusCode != http.StatusOK {
			t.Fatalf("/update status = %d: %s", resp.StatusCode, body)
		}
	}
}

// awaitResumed expects a stream resumed after version from: the missed
// changes from+1 then from+2, each carrying its version as the SSE id, and no
// snapshot event.
func awaitResumed(t *testing.T, events <-chan idEvent, from uint64) {
	t.Helper()
	for _, want := range []uint64{from + 1, from + 2} {
		ev := awaitIDEvent(t, events, "change")
		if wantID := strconv.FormatUint(want, 10); ev.id != wantID {
			t.Fatalf("resumed change id = %s, want %s", ev.id, wantID)
		}
	}
}

// TestDaemonRestartResume is the durability integration path: a daemon over
// a data directory serves registrations and updates, "crashes" (its
// directory is frozen mid-flight, no clean shutdown), and a second daemon
// over the crash image recovers the state and serves a wire WATCH and an SSE
// reconnect with Last-Event-ID by replaying exactly the changes past the
// cursor — no snapshot, no duplicates, no gaps — before continuing with live
// changes.
func TestDaemonRestartResume(t *testing.T) {
	dir1 := filepath.Join(t.TempDir(), "data")
	store := openDurable(t, dir1)
	ts := httptest.NewServer(newServer(store))
	registerAndUpdate(t, ts.URL)
	if got := store.Version(); got != 4 {
		t.Fatalf("version after three flushes = %d, want 4", got)
	}

	// Freeze the crash image while the daemon is still live, then let the
	// original shut down (its clean Close must not affect the image).
	dir2 := filepath.Join(t.TempDir(), "data")
	copyDir(t, dir1, dir2)
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	restarted := openDurable(t, dir2)
	defer restarted.Close()
	ts2 := httptest.NewServer(newServer(restarted))
	defer ts2.Close()

	if got := restarted.Version(); got != 4 {
		t.Fatalf("recovered version = %d, want 4", got)
	}

	// The wire front end over the recovered store: a WATCH from version 2
	// resumes with changes 3 and 4 and no snapshot; one from 99 gets a
	// lagged snapshot.
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wsrv := wire.NewServer(restarted, wire.Options{})
	go wsrv.Serve(wln)
	defer wsrv.Close()
	wc, err := wire.Dial(wln.Addr().String(), wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	ctx, cancelCtx := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelCtx()
	from := uint64(2)
	ww, err := wc.Watch(ctx, "paths", wire.WatchOptions{From: &from})
	if err != nil {
		t.Fatal(err)
	}
	if !ww.Snapshot.Resumed || ww.Snapshot.Lagged {
		t.Fatalf("wire WATCH from 2: snapshot %+v, want resumed and not lagged", ww.Snapshot)
	}
	for _, want := range []uint64{3, 4} {
		n, ok := ww.Next(ctx)
		if !ok || n.Version != want {
			t.Fatalf("wire resumed change = %+v (ok %v, %v), want version %d", n, ok, ww.Err(), want)
		}
	}
	from = 99
	if lw, err := wc.Watch(ctx, "paths", wire.WatchOptions{From: &from}); err != nil {
		t.Fatal(err)
	} else if lw.Snapshot.Resumed || !lw.Snapshot.Lagged {
		t.Fatalf("wire WATCH from 99: snapshot %+v, want lagged", lw.Snapshot)
	}

	// Reconnect over SSE as a watcher that had processed through version 2.
	events, cancel := watchFrom(t, ts2.URL, "paths", "2")
	defer cancel()
	awaitResumed(t, events, 2)
	// The stream continues live: a new update arrives as the next change.
	if resp, body := postJSON(t, ts2.URL+"/update?sync=1", map[string]any{
		"insert": map[string][][]string{"S": {{"b", "c3"}}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("/update after restart status = %d: %s", resp.StatusCode, body)
	}
	var change live.Notification
	ev := awaitIDEvent(t, events, "change")
	if err := json.Unmarshal([]byte(ev.data), &change); err != nil {
		t.Fatal(err)
	}
	if ev.id != "5" || change.Count != 2 {
		t.Fatalf("live change after resume = id %s %+v, want id 5 count 2", ev.id, change)
	}

	// A cursor the store cannot cover (before the recovered window) falls
	// back to a fresh snapshot flagged lagged — the client must re-read.
	lagEvents, lagCancel := watchFrom(t, ts2.URL, "paths", "99")
	defer lagCancel()
	snap := awaitIDEvent(t, lagEvents, "snapshot")
	var sv live.Snapshot
	if err := json.Unmarshal([]byte(snap.data), &sv); err != nil {
		t.Fatal(err)
	}
	if !sv.Lagged || sv.Version != 5 {
		t.Fatalf("lagged snapshot = %+v, want lagged=true version 5", sv)
	}

	// The durability stats section is live.
	statsResp, err := http.Get(ts2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(statsResp.Body)
	statsResp.Body.Close()
	var st live.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability == nil || st.Durability.ReplayedRecords == 0 || st.Durability.Checkpoints == 0 {
		t.Fatalf("stats durability section = %+v, want replayed records and checkpoints", st.Durability)
	}
	if st.Queries != 1 {
		t.Fatalf("stats report %d queries after recovery, want 1", st.Queries)
	}
}

// TestNonDurableDaemonResume: a daemon without a data directory (-db) keeps
// the same watch ring as a durable one, so an SSE reconnect with
// Last-Event-ID resumes there too instead of falling back to a snapshot. Its
// state dies with the process, though: after a restart the same cursor must
// get a lagged snapshot, not the new run's changes as if they followed it.
func TestNonDurableDaemonResume(t *testing.T) {
	run := func() (*live.Store, *httptest.Server, uint64) {
		store, err := live.NewStore(context.Background(), nil, cq.Database{}, live.Config{})
		if err != nil {
			t.Fatal(err)
		}
		start := store.Version()
		ts := httptest.NewServer(newServer(store))
		registerAndUpdate(t, ts.URL)
		return store, ts, start
	}
	store, ts, start := run()
	cursor := start + 1 // processed through the first update
	events, cancel := watchFrom(t, ts.URL, "paths", strconv.FormatUint(cursor, 10))
	awaitResumed(t, events, cursor)
	cancel()
	ts.Close()
	store.Close()

	restarted, ts2, _ := run()
	defer restarted.Close()
	defer ts2.Close()
	if v := restarted.Version(); v <= cursor {
		t.Fatalf("restarted daemon at version %d, not past the earlier run's cursor %d", v, cursor)
	}
	lagEvents, lagCancel := watchFrom(t, ts2.URL, "paths", strconv.FormatUint(cursor, 10))
	defer lagCancel()
	snap := awaitIDEvent(t, lagEvents, "snapshot")
	var sv live.Snapshot
	if err := json.Unmarshal([]byte(snap.data), &sv); err != nil {
		t.Fatal(err)
	}
	if !sv.Lagged || sv.Version != restarted.Version() {
		t.Fatalf("earlier run's cursor got snapshot %+v, want lagged=true version %d", sv, restarted.Version())
	}
}

// TestParseFsync pins the flag grammar.
func TestParseFsync(t *testing.T) {
	if m, _, err := parseFsync("always"); err != nil || m != wal.SyncAlways {
		t.Fatalf("always -> %v, %v", m, err)
	}
	if m, _, err := parseFsync("off"); err != nil || m != wal.SyncOff {
		t.Fatalf("off -> %v, %v", m, err)
	}
	if m, d, err := parseFsync("250ms"); err != nil || m != wal.SyncInterval || d != 250*time.Millisecond {
		t.Fatalf("250ms -> %v, %v, %v", m, d, err)
	}
	for _, bad := range []string{"", "sometimes", "-1s", "0s"} {
		if _, _, err := parseFsync(bad); err == nil {
			t.Fatalf("parseFsync(%q) accepted", bad)
		}
	}
}
