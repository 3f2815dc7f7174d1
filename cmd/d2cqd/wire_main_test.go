package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/live"
	"d2cq/internal/storage"
	"d2cq/internal/wire"
)

// authedServer starts a token-guarded HTTP handler plus a wire server over
// one shared store.
func authedServer(t *testing.T, token string) (*live.Store, *httptest.Server, string) {
	t.Helper()
	store, err := live.NewStore(context.Background(), nil, cq.Database{}, live.Config{History: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ts := httptest.NewServer(newAuthServer(store, token))
	t.Cleanup(ts.Close)
	wsrv := wire.NewServer(store, wire.Options{Token: token})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go wsrv.Serve(ln)
	t.Cleanup(func() { wsrv.Close() })
	return store, ts, ln.Addr().String()
}

// doAuthed issues a request with an optional bearer token.
func doAuthed(t *testing.T, method, url, token string) *http.Response {
	t.Helper()
	var body *strings.Reader
	if method == http.MethodPost {
		body = strings.NewReader(`{"name":"q1","query":"R(x)"}`)
	} else {
		body = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestHTTPAuth: with -auth-token set, every endpoint answers 401 to a
// missing or wrong bearer token and serves normally with the right one.
func TestHTTPAuth(t *testing.T) {
	_, ts, _ := authedServer(t, "hunter2")
	endpoints := []struct {
		method, path string
	}{
		{http.MethodPost, "/query"},
		{http.MethodPost, "/update"},
		{http.MethodGet, "/watch?query=q1"},
		{http.MethodGet, "/solutions?query=q1"},
		{http.MethodGet, "/stats"},
	}
	for _, ep := range endpoints {
		if got := doAuthed(t, ep.method, ts.URL+ep.path, "").StatusCode; got != http.StatusUnauthorized {
			t.Errorf("%s %s without token = %d, want 401", ep.method, ep.path, got)
		}
		if got := doAuthed(t, ep.method, ts.URL+ep.path, "wrong").StatusCode; got != http.StatusUnauthorized {
			t.Errorf("%s %s with wrong token = %d, want 401", ep.method, ep.path, got)
		}
	}
	// The right token reaches the handlers (register succeeds; the reads
	// answer for the now-existing query).
	if got := doAuthed(t, http.MethodPost, ts.URL+"/query", "hunter2").StatusCode; got != http.StatusOK {
		t.Fatalf("authorized /query = %d, want 200", got)
	}
	if got := doAuthed(t, http.MethodGet, ts.URL+"/solutions?query=q1", "hunter2").StatusCode; got != http.StatusOK {
		t.Fatalf("authorized /solutions = %d, want 200", got)
	}
	if got := doAuthed(t, http.MethodGet, ts.URL+"/stats", "hunter2").StatusCode; got != http.StatusOK {
		t.Fatalf("authorized /stats = %d, want 200", got)
	}
}

// TestSolutionsEndpoint: GET /solutions reads the current rows with an
// optional limit; an unknown query is 404.
func TestSolutionsEndpoint(t *testing.T) {
	store, ts, _ := authedServer(t, "")
	ctx := context.Background()
	q, err := cq.ParseQuery("R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Register(ctx, "paths", q); err != nil {
		t.Fatal(err)
	}
	three := storage.NewDelta()
	for k := 1; k <= 3; k++ {
		three.Add("R", fmt.Sprintf("a%d", k), fmt.Sprintf("b%d", k)).
			Add("S", fmt.Sprintf("b%d", k), fmt.Sprintf("c%d", k))
	}
	version, err := store.SubmitSync(ctx, three)
	if err != nil {
		t.Fatal(err)
	}

	get := func(url string) (int, solutionsResponse) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr solutionsResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, sr
	}

	status, sr := get(ts.URL + "/solutions?query=paths")
	if status != http.StatusOK || len(sr.Rows) != 3 || sr.Version != version || sr.Query != "paths" {
		t.Fatalf("/solutions = %d %+v, want 3 rows at version %d", status, sr, version)
	}
	status, sr = get(ts.URL + "/solutions?query=paths&limit=2")
	if status != http.StatusOK || len(sr.Rows) != 2 {
		t.Fatalf("/solutions limit=2 = %d with %d rows, want 2", status, len(sr.Rows))
	}
	if status, _ := get(ts.URL + "/solutions?query=nope"); status != http.StatusNotFound {
		t.Fatalf("/solutions unknown query = %d, want 404", status)
	}
	if status, _ := get(ts.URL + "/solutions"); status != http.StatusBadRequest {
		t.Fatalf("/solutions without query = %d, want 400", status)
	}
}

// pairDelta makes one new solution of "R(x,y), S(y,z)" visible.
func pairDelta(k int) *storage.Delta {
	return storage.NewDelta().
		Add("R", fmt.Sprintf("a%d", k), fmt.Sprintf("b%d", k)).
		Add("S", fmt.Sprintf("b%d", k), fmt.Sprintf("c%d", k))
}

// TestSSEWireDifferential: the same flush stream observed over SSE and over
// the wire protocol is byte-identical — decoding the wire NOTIFY and
// re-marshalling it as JSON reproduces the SSE data line exactly. The binary
// codec is a transport change, not a semantics change.
func TestSSEWireDifferential(t *testing.T) {
	store, ts, wireAddr := authedServer(t, "tok")
	ctx := context.Background()
	q, err := cq.ParseQuery("R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Register(ctx, "paths", q); err != nil {
		t.Fatal(err)
	}

	// SSE side: raw data lines of "change" events.
	sseCtx, cancelSSE := context.WithCancel(ctx)
	defer cancelSSE()
	req, err := http.NewRequestWithContext(sseCtx, http.MethodGet, ts.URL+"/watch?query=paths", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer tok")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/watch status = %d", resp.StatusCode)
	}
	sseLines := make(chan string, 16)
	go func() {
		defer close(sseLines)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		kind, data := "", ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && kind != "":
				if kind == "change" {
					sseLines <- data
				}
				kind, data = "", ""
			}
		}
	}()

	// Wire side: the native client on the same store.
	c, err := wire.Dial(wireAddr, wire.ClientOptions{Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, err := c.Watch(ctx, "paths", wire.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const flushes = 5
	for k := 1; k <= flushes; k++ {
		delta := pairDelta(k)
		if k%2 == 0 { // exercise removals too
			delta.Remove("R", fmt.Sprintf("a%d", k-1), fmt.Sprintf("b%d", k-1))
		}
		if err := store.Submit(delta); err != nil {
			t.Fatal(err)
		}
		if err := store.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}

	for k := 1; k <= flushes; k++ {
		nctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		n, ok := w.Next(nctx)
		cancel()
		if !ok {
			t.Fatalf("wire stream ended at notification %d: %v", k, w.Err())
		}
		wireJSON, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case sse, open := <-sseLines:
			if !open {
				t.Fatalf("SSE stream ended at notification %d", k)
			}
			if sse != string(wireJSON) {
				t.Fatalf("notification %d differs:\n  sse:  %s\n  wire: %s", k, sse, wireJSON)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no SSE change event %d within 5s", k)
		}
	}
}
