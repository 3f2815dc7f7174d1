package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/live"
	"d2cq/internal/wire"
)

// sseEvent is one parsed Server-Sent Event of the /watch stream.
type sseEvent struct {
	kind string
	data string
}

// watchStream opens /watch for the named query and feeds parsed events into
// the returned channel until the request context is cancelled.
func watchStream(t *testing.T, baseURL, name string) (<-chan sseEvent, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/watch?query="+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/watch status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/watch content type = %q", ct)
	}
	events := make(chan sseEvent, 16)
	go func() {
		defer resp.Body.Close()
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			case line == "" && ev.kind != "":
				events <- ev
				ev = sseEvent{}
			}
		}
	}()
	return events, cancel
}

func awaitEvent(t *testing.T, events <-chan sseEvent, kind string) sseEvent {
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
		return sseEvent{}
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestDaemonEndToEnd is the integration smoke: the daemon's handler on a
// random port (httptest), a query registered over POST /query, updates
// posted through the async coalescing pipeline and the sync path, and the
// SSE watch stream delivering the exact change notifications.
func TestDaemonEndToEnd(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "a", "b")
	db.Add("S", "b", "c")
	store, err := live.NewStore(context.Background(), nil, db, live.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ts := httptest.NewServer(newServer(store))
	defer ts.Close()

	// Register and read the initial result.
	resp, body := postJSON(t, ts.URL+"/query", map[string]any{
		"name": "paths", "query": "R(x,y), S(y,z)", "limit": -1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query status = %d: %s", resp.StatusCode, body)
	}
	var qr struct {
		Name    string     `json:"name"`
		Vars    []string   `json:"vars"`
		Count   int64      `json:"count"`
		Version uint64     `json:"version"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad /query body %s: %v", body, err)
	}
	if qr.Count != 1 || len(qr.Rows) != 1 || fmt.Sprint(qr.Rows[0]) != "[a b c]" {
		t.Fatalf("/query = %+v, want count 1 row [a b c]", qr)
	}

	events, cancelWatch := watchStream(t, ts.URL, "paths")
	defer cancelWatch()
	snap := awaitEvent(t, events, "snapshot")
	var sv live.Snapshot
	if err := json.Unmarshal([]byte(snap.data), &sv); err != nil {
		t.Fatal(err)
	}
	if sv.Count != 1 || sv.Query != "paths" {
		t.Fatalf("snapshot = %+v, want count 1 for paths", sv)
	}

	// Async update: flushed by group commit, no manual flush.
	resp, body = postJSON(t, ts.URL+"/update", map[string]any{
		"insert": map[string][][]string{"R": {{"a", "b2"}}, "S": {{"b2", "c2"}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/update status = %d: %s", resp.StatusCode, body)
	}
	// Notifications are immutable once published (their Added/Removed rows
	// alias the query's shared broadcast ring on the server side); decoding
	// the SSE payload into a fresh value is the deep copy that makes the
	// client's view safe to mutate.
	var change live.Notification
	if err := json.Unmarshal([]byte(awaitEvent(t, events, "change").data), &change); err != nil {
		t.Fatal(err)
	}
	if change.Count != 2 || len(change.Added) != 1 || fmt.Sprint(change.Added[0]) != "[a b2 c2]" {
		t.Fatalf("change = %+v, want one added row [a b2 c2]", change)
	}

	// Sync update: the response only returns after the flush, so the delete
	// must already be applied when /query answers next.
	resp, body = postJSON(t, ts.URL+"/update?sync=1", map[string]any{
		"delete": map[string][][]string{"R": {{"a", "b"}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/update?sync=1 status = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(awaitEvent(t, events, "change").data), &change); err != nil {
		t.Fatal(err)
	}
	if change.Count != 1 || len(change.Removed) != 1 || fmt.Sprint(change.Removed[0]) != "[a b c]" {
		t.Fatalf("change = %+v, want one removed row [a b c]", change)
	}
	if cnt, _, err := store.Count("paths"); err != nil || cnt != 1 {
		t.Fatalf("store count after sync delete = %d (%v), want 1", cnt, err)
	}

	// Stats reflect the traffic.
	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st live.Stats
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if st.Queries != 1 || st.Subscribers != 1 || st.Flushes < 2 || st.Notifications < 2 {
		t.Fatalf("stats = %+v, want 1 query, 1 subscriber, ≥2 flushes and notifications", st)
	}
}

// TestDaemonErrors pins the HTTP error surface: malformed and unknown
// requests answer with JSON errors and sane status codes.
func TestDaemonErrors(t *testing.T) {
	store, err := live.NewStore(context.Background(), nil, cq.Database{}, live.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ts := httptest.NewServer(newServer(store))
	defer ts.Close()

	for _, tc := range []struct {
		name   string
		status int
		do     func() *http.Response
	}{
		{"query-get", http.StatusMethodNotAllowed, func() *http.Response {
			r, _ := http.Get(ts.URL + "/query")
			return r
		}},
		{"query-bad-syntax", http.StatusBadRequest, func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/query", map[string]any{"name": "x", "query": "not a query ("})
			return r
		}},
		{"query-missing-name", http.StatusBadRequest, func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/query", map[string]any{"query": "R(x)"})
			return r
		}},
		{"query-name-conflict", http.StatusConflict, func() *http.Response {
			postJSON(t, ts.URL+"/query", map[string]any{"name": "taken", "query": "R(x)"})
			r, _ := postJSON(t, ts.URL+"/query", map[string]any{"name": "taken", "query": "S(x)"})
			return r
		}},
		{"watch-unknown", http.StatusNotFound, func() *http.Response {
			r, _ := http.Get(ts.URL + "/watch?query=nope")
			return r
		}},
		{"watch-no-name", http.StatusBadRequest, func() *http.Response {
			r, _ := http.Get(ts.URL + "/watch")
			return r
		}},
		{"update-bad-json", http.StatusBadRequest, func() *http.Response {
			r, _ := http.Post(ts.URL+"/update", "application/json", strings.NewReader("{"))
			return r
		}},
		{"update-sync-arity", http.StatusBadRequest, func() *http.Response {
			postJSON(t, ts.URL+"/query", map[string]any{"name": "q", "query": "R(x,y)"})
			r, _ := postJSON(t, ts.URL+"/update?sync=1", map[string]any{
				"insert": map[string][][]string{"R": {{"a", "b"}, {"only-one"}}},
			})
			return r
		}},
	} {
		resp := tc.do()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		resp.Body.Close()
	}
}

// TestSyncUpdateStatus: /update?sync=1 tells a bad delta (400), a failed
// flush (500) and a closed store (503) apart, as separate submit and flush
// calls did.
func TestSyncUpdateStatus(t *testing.T) {
	ctx := context.Background()
	store, err := live.NewStore(ctx, nil, cq.Database{}, live.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	q, err := cq.ParseQuery("R(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Register(ctx, "q", q); err != nil {
		t.Fatal(err)
	}
	h := newServer(store)
	post := func(ctx context.Context, body string) int {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/update?sync=1", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if got := post(ctx, `{"insert":{"R":[["a","b"],["only-one"]]}}`); got != http.StatusBadRequest {
		t.Errorf("arity error: status %d, want 400", got)
	}
	// A request cancelled before its flush ran fails the flush, not the delta.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if got := post(cancelled, `{"insert":{"R":[["a","b"]]}}`); got != http.StatusInternalServerError {
		t.Errorf("failed flush: status %d, want 500", got)
	}
	store.Close()
	if got := post(ctx, `{"insert":{"R":[["c","d"]]}}`); got != http.StatusServiceUnavailable {
		t.Errorf("closed store: status %d, want 503", got)
	}
}

// TestWatchClosedStore: GET /watch on a closed store answers 503, as
// /update does, not 404 — the query exists, the store is gone.
func TestWatchClosedStore(t *testing.T) {
	ctx := context.Background()
	store, err := live.NewStore(ctx, nil, cq.Database{}, live.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := cq.ParseQuery("R(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Register(ctx, "q", q); err != nil {
		t.Fatal(err)
	}
	store.Close()
	rec := httptest.NewRecorder()
	newServer(store).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/watch?query=q", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/watch on a closed store: status %d, want 503", rec.Code)
	}
}

// repeatReader yields n copies of one byte.
type repeatReader struct {
	b byte
	n int64
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = r.b
	}
	r.n -= int64(len(p))
	return len(p), nil
}

// TestOversizedBodyRefused: a request body beyond wire.MaxFrameLen — the cap
// the wire front end already puts on a request — is refused with 413 on both
// body-reading endpoints, and nothing of it reaches the store.
func TestOversizedBodyRefused(t *testing.T) {
	store, err := live.NewStore(context.Background(), nil, cq.Database{}, live.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	v0 := store.Version()
	h := newServer(store)
	post := func(what, path string, body io.Reader, declared int64) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s: status = %d, want %d", path, what, rec.Code, http.StatusRequestEntityTooLarge)
		}
	}
	for _, tc := range []struct{ path, prefix string }{
		{"/update", `{"insert":{"R":[["`},
		{"/query", `{"name":"q","query":"R(x), S('`},
	} {
		// A body that declares itself too large is refused unread.
		post("declared", tc.path, strings.NewReader(tc.prefix), wire.MaxFrameLen+1)
		if testing.Short() {
			continue // 64 MiB through the JSON scanner takes seconds under -race
		}
		// One of unknown length (chunked): well-formed JSON so far, inside a
		// string that never ends — cut off at the limit.
		post("streamed", tc.path, io.MultiReader(strings.NewReader(tc.prefix), &repeatReader{b: 'a', n: wire.MaxFrameLen}), -1)
	}
	if st := store.Stats(); st.DeltasSubmitted != 0 || st.PendingTuples != 0 || st.Queries != 0 || st.Version != v0 {
		t.Fatalf("refused requests reached the store: %+v", st)
	}
}

// TestRunBadFlags: the CLI surface rejects unknown flags and bad databases.
func TestRunBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Error("unknown flag must error")
	}
	if err := run([]string{"-db", "/nonexistent/db.txt", "-addr", "127.0.0.1:0"}, &out); err == nil {
		t.Error("missing database file must error")
	}
}

// TestRunRefusesShardedDataDir: a data dir laid out by the sharded store of
// earlier releases (one log per shard-<i>/ subdirectory) is refused at
// startup instead of reopening as an empty store; look-alike entries are not.
func TestRunRefusesShardedDataDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "shard-0"), 0o755); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- run([]string{"-data-dir", dir, "-addr", "127.0.0.1:0"}, io.Discard) }()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "shard-0") {
			t.Fatalf("run over a sharded data dir: %v, want an error naming shard-0", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run over a sharded data dir started serving instead of refusing it")
	}

	other := t.TempDir()
	if err := os.Mkdir(filepath.Join(other, "shard-x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(other, "shard-1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{other, filepath.Join(other, "not-yet-created")} {
		if err := refuseShardedDataDir(d); err != nil {
			t.Errorf("%s: %v, want it accepted", d, err)
		}
	}
}
