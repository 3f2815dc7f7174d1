// Command d2cqd serves live conjunctive queries over HTTP/JSON: it owns an
// evolving database behind a live.Store, registers queries on demand, absorbs
// update streams through the coalescing ingestion pipeline, and pushes
// result-change notifications to watchers over Server-Sent Events.
//
// Usage:
//
//	d2cqd [-addr 127.0.0.1:8344] [-db file]
//	      [-data-dir dir] [-fsync always|off|duration]
//	      [-listen-wire host:port] [-auth-token T]
//
// With -listen-wire the daemon also serves the binary wire protocol
// (internal/wire) on that address, against the same store the HTTP endpoints
// route to; shutdown drains both listeners. With -auth-token every HTTP
// request must carry "Authorization: Bearer T" (compared in constant time;
// 401 otherwise) and every wire handshake must present the same token.
//
// With -data-dir the store is durable: every applied batch and registration
// is written to a write-ahead log under the directory before it becomes
// observable, snapshot checkpoints bound recovery replay (one once the log
// since the last has grown to that checkpoint's size, plus on startup and
// shutdown), and a restart over the same directory resumes at the exact
// pre-crash state. -fsync picks
// the durability/latency trade-off: "always" fsyncs per flush, a duration
// ("100ms") fsyncs on that interval, "off" leaves flushing to the OS. A
// data directory with shard-<i> subdirectories was written by the sharded
// store of earlier releases and is refused: its logs are in those
// subdirectories, so opening it here would start an empty store.
//
// Endpoints:
//
//	POST /query   {"name":"paths","query":"R(x,y), S(y,z)","limit":10}
//	              registers the named query (idempotent) and returns its
//	              vars, count and — when limit is non-zero — up to limit
//	              solution rows (limit < 0: all).
//	POST /update  {"insert":{"R":[["a","b"]]},"delete":{"S":[["c","d"]]}}
//	              submits one delta to the ingestion pipeline (group
//	              commit: applied by the next flush, which starts at once
//	              when none is running). With ?sync=1 the response waits
//	              for the flush that makes the delta visible and reports
//	              a version at which it is.
//	GET  /watch?query=paths
//	              an SSE stream: one "snapshot" event with the count at the
//	              version the stream starts from, then one "change" event per
//	              later flush that changed the result, carrying the exact
//	              added/removed tuples — every change event's id is above the
//	              snapshot's. Every event carries an SSE id (its version); a
//	              client reconnecting with Last-Event-ID (or ?from=N) resumes
//	              the stream exactly when the store still holds every change
//	              past that cursor — otherwise it gets a fresh "snapshot"
//	              event with "lagged":true and must re-read the result.
//	GET  /solutions?query=paths&limit=10
//	              the named query's current rows (limit < 1: all) and the
//	              snapshot version they were read at.
//	GET  /stats   store + engine counters as JSON (plus a durability
//	              section — log size, checkpoints, replay length — when
//	              -data-dir is set, and per-query watch backpressure under
//	              "backpressure" whenever credit-gated wire watchers exist).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
	"d2cq/internal/live"
	"d2cq/internal/storage"
	"d2cq/internal/wal"
	"d2cq/internal/wire"
)

// parseFsync maps the -fsync flag onto a WAL sync policy.
func parseFsync(v string) (wal.SyncMode, time.Duration, error) {
	switch v {
	case "always":
		return wal.SyncAlways, 0, nil
	case "off":
		return wal.SyncOff, 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("-fsync must be always, off, or a positive duration (got %q)", v)
	}
	return wal.SyncInterval, d, nil
}

// refuseShardedDataDir rejects a data directory written by the sharded store
// of earlier releases, which kept one log per shard under shard-<i>/. The
// log backend reads only the directory's own files, so such a directory
// would otherwise reopen as an empty store with its data silently ignored.
// A directory that does not exist yet is fine: the backend creates it.
func refuseShardedDataDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		n, ok := strings.CutPrefix(e.Name(), "shard-")
		if !ok || !e.IsDir() {
			continue
		}
		if _, err := strconv.Atoi(n); err == nil {
			return fmt.Errorf("-data-dir %s holds %s/, the log of a sharded store from an earlier release; "+
				"this daemon runs one store and would open the directory empty, so it refuses it "+
				"(recover the data with the release that wrote it)", dir, e.Name())
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "d2cqd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("d2cqd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8344", "listen address (host:port; port 0 picks a free one)")
	dbPath := fs.String("db", "", "initial database file, one ground atom per line (empty: start with an empty database)")
	fs.Int("max-batch", 0, "deprecated and ignored: flushing is group commit")
	fs.Duration("max-latency", 0, "deprecated and ignored: flushing is group commit")
	dataDir := fs.String("data-dir", "", "durable mode: write-ahead log + checkpoints under this directory; restarts resume the pre-crash state")
	fsync := fs.String("fsync", "always", "WAL fsync policy: always (per flush), off, or an interval duration like 100ms")
	listenWire := fs.String("listen-wire", "", "also serve the binary wire protocol on this address (host:port; empty: HTTP only)")
	authToken := fs.String("auth-token", "", "require this bearer token on every HTTP request and wire handshake (empty: no auth)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db := cq.Database{}
	if *dbPath != "" {
		data, err := os.ReadFile(*dbPath)
		if err != nil {
			return err
		}
		if db, err = cq.ParseDatabaseString(string(data)); err != nil {
			return err
		}
	}
	var store *live.Store
	if *dataDir != "" {
		if *dbPath != "" {
			// The log is the source of truth in durable mode; silently also
			// loading a -db file would make restarts diverge from it.
			return fmt.Errorf("-db and -data-dir are mutually exclusive (feed initial data through POST /update)")
		}
		mode, interval, err := parseFsync(*fsync)
		if err != nil {
			return err
		}
		if err := refuseShardedDataDir(*dataDir); err != nil {
			return err
		}
		backend, err := wal.NewFS(*dataDir)
		if err != nil {
			return err
		}
		store, err = live.Open(context.Background(), engine.NewEngine(), live.DurableConfig{
			Backend:      backend,
			SyncMode:     mode,
			SyncInterval: interval,
		})
		if err != nil {
			return err
		}
	} else {
		var err error
		if store, err = live.NewStore(context.Background(), engine.NewEngine(), db, live.Config{}); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "d2cqd listening on http://%s\n", ln.Addr())
	// A connection that never finishes its request headers cannot pin a
	// goroutine forever — the wire listener's handshake bound, on HTTP.
	srv := &http.Server{Handler: newAuthServer(store, *authToken), ReadHeaderTimeout: wire.DefaultHandshakeTimeout}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	// The wire listener serves the same store beside HTTP: two protocols,
	// one state, one token.
	var wireSrv *wire.Server
	if *listenWire != "" {
		wln, err := net.Listen("tcp", *listenWire)
		if err != nil {
			ln.Close()
			store.Close()
			return err
		}
		fmt.Fprintf(out, "d2cqd wire listening on %s\n", wln.Addr())
		wireSrv = wire.NewServer(store, wire.Options{Token: *authToken})
		go func() {
			if werr := wireSrv.Serve(wln); werr != nil {
				errCh <- werr
			}
		}()
	}
	shutdown := func() error {
		// Close the store first: that ends every subscription (Next returns
		// false), which is what makes the in-flight /watch handlers and wire
		// watch pumps drain — srv.Shutdown alone would wait its full timeout
		// on them (it never cancels in-flight request contexts), and a wire
		// connection would idle forever on a silent stream.
		cerr := store.Close()
		if wireSrv != nil {
			if werr := wireSrv.Close(); werr != nil && cerr == nil {
				cerr = werr
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if err == nil {
			err = cerr
		}
		return err
	}
	select {
	case err := <-errCh:
		shutdown()
		return err
	case <-stop:
		fmt.Fprintln(out, "d2cqd shutting down")
		return shutdown()
	}
}

// server routes the HTTP API onto one live.Service.
type server struct {
	store live.Service
	token string
	mux   *http.ServeMux
}

// newServer returns the daemon's HTTP handler over the given store — the
// seam the integration tests drive without a process boundary.
func newServer(store live.Service) http.Handler { return newAuthServer(store, "") }

// newAuthServer is newServer plus a bearer token guarding every endpoint.
func newAuthServer(store live.Service, token string) http.Handler {
	s := &server{store: store, token: token, mux: http.NewServeMux()}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/update", s.handleUpdate)
	s.mux.HandleFunc("/watch", s.handleWatch)
	s.mux.HandleFunc("/solutions", s.handleSolutions)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s
}

// ServeHTTP checks the bearer token (the same constant-time predicate the
// wire handshake uses) before routing.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.token != "" {
		presented, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || !wire.TokenOK(s.token, presented) {
			w.Header().Set("WWW-Authenticate", `Bearer realm="d2cqd"`)
			httpError(w, http.StatusUnauthorized, fmt.Errorf("missing or invalid bearer token"))
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// httpError renders an error as a JSON body with the given status.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// statuses is the HTTP status of each class of failed request.
var statuses = [...]int{
	live.Internal:     http.StatusInternalServerError,
	live.BadRequest:   http.StatusBadRequest,
	live.UnknownQuery: http.StatusNotFound,
	live.Conflict:     http.StatusConflict,
	live.Closed:       http.StatusServiceUnavailable,
}

// failure answers a request the store refused or failed.
func failure(w http.ResponseWriter, err error) {
	httpError(w, statuses[live.Classify(err)], err)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// decodeBody decodes a JSON request body of at most wire.MaxFrameLen bytes —
// the cap the wire front end puts on a request frame — into v. On failure it
// answers the request (413 for an oversized body, 400 for a malformed one)
// and returns false; nothing has reached the store by then.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.ContentLength > wire.MaxFrameLen { // says so itself: refuse without reading it
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body of %d bytes exceeds the %d-byte limit", r.ContentLength, wire.MaxFrameLen))
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxFrameLen)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, err)
	return false
}

// queryRequest is the POST /query body.
type queryRequest struct {
	Name  string `json:"name"`
	Query string `json:"query"`
	// Limit asks for solution rows too: > 0 caps them, < 0 returns all,
	// 0 returns the count only.
	Limit int `json:"limit"`
}

type queryResponse struct {
	live.QueryInfo
	Rows [][]string `json:"rows,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	info, err := live.RegisterText(r.Context(), s.store, req.Name, req.Query)
	if err != nil {
		failure(w, err)
		return
	}
	resp := queryResponse{QueryInfo: info}
	if req.Limit != 0 {
		if resp.Rows, _, err = s.store.Solutions(r.Context(), req.Name, req.Limit); err != nil {
			failure(w, err)
			return
		}
	}
	writeJSON(w, resp)
}

// updateRequest is the POST /update body — the JSON mirror of a
// storage.Delta (deletes apply first, set semantics).
type updateRequest struct {
	Insert map[string][][]string `json:"insert"`
	Delete map[string][][]string `json:"delete"`
}

func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req updateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	delta := &storage.Delta{Insert: req.Insert, Delete: req.Delete}
	ack, err := live.SubmitAck(r.Context(), s.store, delta, r.URL.Query().Get("sync") != "")
	if err != nil {
		failure(w, err)
		return
	}
	writeJSON(w, ack)
}

func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	name := r.URL.Query().Get("query")
	if name == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("query parameter is required"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	// A resume cursor comes from the standard SSE reconnect header, or from
	// ?from= for clients that manage cursors themselves. The cursor is the
	// version of the last event the client fully processed.
	var cursor uint64
	from, param := r.Header.Get("Last-Event-ID"), "Last-Event-ID"
	if from == "" {
		from, param = r.URL.Query().Get("from"), "from"
	}
	if from != "" {
		var err error
		if cursor, err = strconv.ParseUint(from, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad %s %q: %w", param, from, err))
			return
		}
	}
	sub, snap, err := s.store.Subscribe(name, cursor, from != "")
	if err != nil {
		failure(w, err)
		return
	}
	defer sub.Cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Every event carries its snapshot version as the SSE id, so the
	// browser's automatic Last-Event-ID reconnect resumes at the right spot.
	event := func(kind string, id uint64, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", kind, id, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	// The snapshot is the version the stream's cursor was placed at, so
	// every change event after it is a later one. A resumed stream has the
	// missed changes queued instead and sends no snapshot.
	if !snap.Resumed && !event("snapshot", snap.Version, snap) {
		return
	}
	for {
		// Next blocks on the query's shared broadcast ring — no per-watcher
		// buffer — and returns false when the store closes, the subscription
		// ends, or the client goes away (the request context).
		n, ok := sub.Next(r.Context())
		if !ok {
			return
		}
		if !event("change", n.Version, n) {
			return
		}
	}
}

// solutionsResponse is the GET /solutions body: a point-in-time read of a
// registered query's rows and the version they were read at.
type solutionsResponse struct {
	Query   string     `json:"query"`
	Version uint64     `json:"version"`
	Rows    [][]string `json:"rows"`
}

func (s *server) handleSolutions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	name := r.URL.Query().Get("query")
	if name == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("query parameter is required"))
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q: %w", v, err))
			return
		}
		limit = n
	}
	rows, version, err := s.store.Solutions(r.Context(), name, limit)
	if err != nil {
		failure(w, err)
		return
	}
	if rows == nil {
		rows = [][]string{}
	}
	writeJSON(w, solutionsResponse{Query: name, Version: version, Rows: rows})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.store.Stats())
}
