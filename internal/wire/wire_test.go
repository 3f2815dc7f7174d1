package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/live"
	"d2cq/internal/storage"
)

// newTestServer starts a store and a wire server on a loopback listener and
// returns the store plus the dial address. Everything shuts down with the
// test.
func newTestServer(t *testing.T, token string) (*live.Store, string) {
	t.Helper()
	s, err := live.NewStore(context.Background(), nil, cq.Database{}, live.Config{History: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	_, addr := serve(t, s, token)
	return s, addr
}

// serve starts a wire server over svc on a loopback listener and returns it
// with the dial address; it closes with the test.
func serve(tb testing.TB, svc live.Service, token string) (*Server, string) {
	tb.Helper()
	srv := NewServer(svc, Options{Token: token})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func dialTest(t *testing.T, addr, token string) *Client {
	t.Helper()
	c, err := Dial(addr, ClientOptions{Token: token})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// pairDelta makes one new solution of "R(x,y), S(y,z)" visible.
func pairDelta(k int) *storage.Delta {
	return storage.NewDelta().
		Add("R", fmt.Sprintf("a%d", k), fmt.Sprintf("b%d", k)).
		Add("S", fmt.Sprintf("b%d", k), fmt.Sprintf("c%d", k))
}

// TestHandshakeAuth: a wrong or missing token is refused with
// ErrCodeUnauthorized before any request frame; the right token (and any
// token against an open server) is admitted.
func TestHandshakeAuth(t *testing.T) {
	_, addr := newTestServer(t, "s3cret")

	if _, err := Dial(addr, ClientOptions{Token: "wrong"}); err == nil {
		t.Fatal("bad token admitted")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != ErrCodeUnauthorized {
			t.Fatalf("bad token error = %v, want ErrCodeUnauthorized", err)
		}
	}
	if _, err := Dial(addr, ClientOptions{}); err == nil {
		t.Fatal("missing token admitted")
	}
	c := dialTest(t, addr, "s3cret")
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("authenticated stats: %v", err)
	}

	_, open := newTestServer(t, "")
	c2, err := Dial(open, ClientOptions{Token: "anything"})
	if err != nil {
		t.Fatalf("open server refused: %v", err)
	}
	c2.Close()
}

// TestRoundtrip drives the full unary surface: register, sync submit, point
// read, stats — typed responses end to end.
func TestRoundtrip(t *testing.T) {
	s, addr := newTestServer(t, "tok")
	c := dialTest(t, addr, "tok")
	ctx := context.Background()
	want := s.Version() + 1 // the version of the first flush

	info, err := c.Register(ctx, "paths", "R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info.Vars, []string{"x", "y", "z"}) || info.Count != 0 {
		t.Fatalf("register info = %+v", info)
	}

	// Registering the same name again with a different query is a typed
	// conflict.
	if _, err := c.Register(ctx, "paths", "T(a)"); err == nil {
		t.Fatal("conflicting register accepted")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != ErrCodeConflict {
			t.Fatalf("conflict error = %v, want ErrCodeConflict", err)
		}
	}

	version, pending, err := c.Submit(ctx, pairDelta(1), true)
	if err != nil {
		t.Fatal(err)
	}
	if version != want || pending != 0 {
		t.Fatalf("sync submit ack = version %d pending %d, want %d, 0", version, pending, want)
	}

	rows, readVersion, err := c.Solutions(ctx, "paths", 0)
	if err != nil {
		t.Fatal(err)
	}
	if readVersion != want || len(rows) != 1 || !reflect.DeepEqual(rows[0], []string{"a1", "b1", "c1"}) {
		t.Fatalf("solutions = %v @%d", rows, readVersion)
	}

	raw, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Wire  ServerStats    `json:"wire"`
		Store map[string]any `json:"store"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("stats document: %v", err)
	}
	if doc.Wire.Connections == 0 || doc.Wire.FramesIn == 0 {
		t.Fatalf("wire stats empty: %+v", doc.Wire)
	}
	if doc.Store == nil {
		t.Fatal("stats document missing store section")
	}

	// Unknown query on the watch path is a typed error too.
	if _, err := c.Watch(ctx, "nope", WatchOptions{}); err == nil {
		t.Fatal("watch on unknown query accepted")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != ErrCodeUnknownQuery {
			t.Fatalf("unknown-query error = %v, want ErrCodeUnknownQuery", err)
		}
	}
	// And on the point read, as HTTP answers 404 for both.
	if _, _, err := c.Solutions(ctx, "nope", 0); err == nil {
		t.Fatal("query of an unknown name accepted")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != ErrCodeUnknownQuery {
			t.Fatalf("unknown-query read error = %v, want ErrCodeUnknownQuery", err)
		}
	}
}

// failingFlush is a store whose every sync submit fails in its flush.
type failingFlush struct{ live.Service }

func (failingFlush) SubmitSync(context.Context, *storage.Delta) (uint64, error) {
	return 0, errors.New("flush failed")
}

// TestSubmitFlushFailure: a sync SUBMIT whose flush fails is the server's
// failure, not the request's — ErrCodeInternal, as HTTP answers 500.
func TestSubmitFlushFailure(t *testing.T) {
	s, err := live.NewStore(context.Background(), nil, cq.Database{}, live.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	_, addr := serve(t, failingFlush{s}, "")
	c := dialTest(t, addr, "")
	_, _, err = c.Submit(context.Background(), pairDelta(1), true)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != ErrCodeInternal {
		t.Fatalf("failed flush error = %v, want ErrCodeInternal", err)
	}
}

// TestWatchNotifies: a watch stream delivers each flush's diff in order,
// with the binary codec round-tripping the full notification.
func TestWatchNotifies(t *testing.T) {
	s, addr := newTestServer(t, "")
	c := dialTest(t, addr, "")
	ctx := context.Background()
	base := s.Version() - 1 // the store starts at version base+1

	if _, err := c.Register(ctx, "paths", "R(x,y), S(y,z)"); err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(ctx, "paths", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Snapshot.Resumed || w.Snapshot.Version != base+1 || w.Snapshot.Count != 0 {
		t.Fatalf("snapshot = %+v", w.Snapshot)
	}

	for k := 1; k <= 3; k++ {
		if _, _, err := c.Submit(ctx, pairDelta(k), true); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= 3; k++ {
		nctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		n, ok := w.Next(nctx)
		cancel()
		if !ok {
			t.Fatalf("stream ended before notification %d: %v", k, w.Err())
		}
		want := live.Notification{
			Query:     "paths",
			Version:   base + uint64(k+1),
			Count:     int64(k),
			PrevCount: int64(k - 1),
			Added:     [][]string{{fmt.Sprintf("a%d", k), fmt.Sprintf("b%d", k), fmt.Sprintf("c%d", k)}},
		}
		if !reflect.DeepEqual(n, want) {
			t.Fatalf("notification %d = %+v, want %+v", k, n, want)
		}
	}

	if err := w.Cancel(); err != nil {
		t.Fatal(err)
	}
	nctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if n, ok := w.Next(nctx); ok {
		t.Fatalf("notification after cancel: %+v", n)
	}
	if w.Err() != nil {
		t.Fatalf("cancelled stream err = %v, want nil", w.Err())
	}
}

// TestCreditParkResume: a manual watch with zero credit parks server-side —
// visible in the store's backpressure stats — and each Grant releases
// exactly that many notifications.
func TestCreditParkResume(t *testing.T) {
	s, addr := newTestServer(t, "")
	c := dialTest(t, addr, "")
	ctx := context.Background()

	if _, err := c.Register(ctx, "paths", "R(x,y), S(y,z)"); err != nil {
		t.Fatal(err)
	}
	base := s.Version() - 1 // the store starts at version base+1
	w, err := c.Watch(ctx, "paths", WatchOptions{Window: -1, Manual: true})
	if err != nil {
		t.Fatal(err)
	}

	for k := 1; k <= 2; k++ {
		if _, _, err := c.Submit(ctx, pairDelta(k), true); err != nil {
			t.Fatal(err)
		}
	}

	// Nothing may arrive without credit.
	nctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	if n, ok := w.Next(nctx); ok {
		cancel()
		t.Fatalf("delivery with zero credit: %+v", n)
	}
	cancel()

	// The park is explicit protocol state, surfaced by the store's stats.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if len(st.Backpressure) == 1 && st.Backpressure[0].ParkedStreams == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("parked stream not visible in stats: %+v", st.Backpressure)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// One credit, one notification; the resume is counted.
	if err := w.Grant(1); err != nil {
		t.Fatal(err)
	}
	nctx, cancel = context.WithTimeout(ctx, 5*time.Second)
	n, ok := w.Next(nctx)
	cancel()
	if !ok || n.Version != base+2 {
		t.Fatalf("first granted notification = %+v ok=%v, want version %d", n, ok, base+2)
	}
	nctx, cancel = context.WithTimeout(ctx, 200*time.Millisecond)
	if n, ok := w.Next(nctx); ok {
		cancel()
		t.Fatalf("second delivery on one credit: %+v", n)
	}
	cancel()

	if err := w.Grant(1); err != nil {
		t.Fatal(err)
	}
	nctx, cancel = context.WithTimeout(ctx, 5*time.Second)
	n, ok = w.Next(nctx)
	cancel()
	if !ok || n.Version != base+3 {
		t.Fatalf("second granted notification = %+v ok=%v, want version %d", n, ok, base+3)
	}

	st := s.Stats()
	if len(st.Backpressure) != 1 || st.Backpressure[0].Resumes == 0 {
		t.Fatalf("resume not counted: %+v", st.Backpressure)
	}
}

// TestWatchFromResume: a cursor carried in the WATCH frame replays the
// missed notifications; a cursor past the ring's tail is answered with a
// lagged snapshot instead of silence.
func TestWatchFromResume(t *testing.T) {
	s, addr := newTestServer(t, "")
	c := dialTest(t, addr, "")
	ctx := context.Background()
	base := s.Version() - 1 // the store starts at version base+1

	if _, err := c.Register(ctx, "paths", "R(x,y), S(y,z)"); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		if _, _, err := c.Submit(ctx, pairDelta(k), true); err != nil {
			t.Fatal(err)
		}
	}

	from := base + 2
	w, err := c.Watch(ctx, "paths", WatchOptions{From: &from})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Snapshot.Resumed || w.Snapshot.Lagged {
		t.Fatalf("resume snapshot = %+v, want resumed", w.Snapshot)
	}
	for _, wantVersion := range []uint64{base + 3, base + 4, base + 5} {
		nctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		n, ok := w.Next(nctx)
		cancel()
		if !ok || n.Version != wantVersion {
			t.Fatalf("resumed notification = %+v ok=%v, want version %d", n, ok, wantVersion)
		}
	}
	w.Cancel()

	// A cursor older than the ring holds is honestly refused: fresh stream,
	// Lagged snapshot, resynchronise via Solutions.
	ancient := uint64(0)
	for k := 5; k <= 20; k++ { // push version base+2 out of the 8-deep ring
		if _, _, err := c.Submit(ctx, pairDelta(k), true); err != nil {
			t.Fatal(err)
		}
	}
	w2, err := c.Watch(ctx, "paths", WatchOptions{From: &ancient})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Snapshot.Resumed || !w2.Snapshot.Lagged {
		t.Fatalf("out-of-window snapshot = %+v, want lagged", w2.Snapshot)
	}
	w2.Cancel()
}

// TestWatchAdmissionExact: a WATCH's snapshot and its stream's cursor are one
// point in the store's history. Sequential WATCHes race a loop of sync
// submits, each of which changes the result; every stream's first NOTIFY must
// be the first change past its snapshot — a later version, counted from the
// snapshot's count — never a change the snapshot already holds. The default
// History keeps ring lag rare; on a loaded host the loop can still run a
// ring's worth of flushes before a stream's pump first reads, and then the
// check steps back over the Lagged changes, one version and one answer each.
func TestWatchAdmissionExact(t *testing.T) {
	s, err := live.NewStore(context.Background(), nil, cq.Database{}, live.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	_, addr := serve(t, s, "")
	c := dialTest(t, addr, "")
	ctx := context.Background()
	if _, err := c.Register(ctx, "paths", "R(x,y), S(y,z)"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	submitErr := make(chan error, 1)
	go func() {
		for k := 0; ; k++ {
			select {
			case <-stop:
				submitErr <- nil
				return
			default:
			}
			if _, err := s.SubmitSync(ctx, pairDelta(k)); err != nil {
				submitErr <- err
				return
			}
		}
	}()

	const watches = 300
	bad := 0
	for i := 0; i < watches; i++ {
		w, err := c.Watch(ctx, "paths", WatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		nctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		n, ok := w.Next(nctx)
		cancel()
		if !ok {
			t.Fatalf("watch %d: stream ended before its first notification: %v", i, w.Err())
		}
		if n.Version-n.Lagged <= w.Snapshot.Version || n.PrevCount-int64(n.Lagged) != w.Snapshot.Count {
			if bad++; bad <= 3 {
				t.Errorf("watch %d: snapshot version %d count %d, first notification version %d prev_count %d lagged %d",
					i, w.Snapshot.Version, w.Snapshot.Count, n.Version, n.PrevCount, n.Lagged)
			}
		}
		w.Cancel()
	}
	close(stop)
	if err := <-submitErr; err != nil {
		t.Fatal(err)
	}
	if bad > 0 {
		t.Fatalf("%d of %d first notifications were already in their snapshot", bad, watches)
	}
}

// TestConcurrentStreams: many watches and submitters share one connection;
// every stream sees every version exactly once, in order.
func TestConcurrentStreams(t *testing.T) {
	s, addr := newTestServer(t, "")
	c := dialTest(t, addr, "")
	ctx := context.Background()
	base := s.Version() - 1 // the store starts at version base+1

	if _, err := c.Register(ctx, "paths", "R(x,y), S(y,z)"); err != nil {
		t.Fatal(err)
	}
	// No more flushes than the test store's 8-deep ring holds: a watcher
	// that falls behind the submitter then waits instead of losing the
	// oldest changes off the ring's tail.
	const watchers, flushes = 4, 8
	ws := make([]*Watch, watchers)
	for i := range ws {
		w, err := c.Watch(ctx, "paths", WatchOptions{Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	go func() {
		for k := 1; k <= flushes; k++ {
			if _, _, err := c.Submit(ctx, pairDelta(k), true); err != nil {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, watchers)
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *Watch) {
			defer wg.Done()
			for k := 1; k <= flushes; k++ {
				nctx, cancel := context.WithTimeout(ctx, 10*time.Second)
				n, ok := w.Next(nctx)
				cancel()
				if !ok {
					errs <- fmt.Errorf("watcher %d: stream ended at %d: %v", i, k, w.Err())
					return
				}
				if want := base + uint64(k+1); n.Version != want {
					errs <- fmt.Errorf("watcher %d: version %d, want %d", i, n.Version, want)
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCloseWhileNotifying closes a client while the server keeps notifying a
// watcher that has stopped reading: the read loop may be routing a
// notification into the watch's channel at that moment, so the channel must
// not be closed under it. Under -race any such close is reported.
func TestCloseWhileNotifying(t *testing.T) {
	s, addr := newTestServer(t, "")
	ctx := context.Background()
	admin := dialTest(t, addr, "")
	if _, err := admin.Register(ctx, "paths", "R(x,y), S(y,z)"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.SubmitSync(ctx, pairDelta(k)); err != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-submitted
	}()
	for round := 0; round < 100; round++ {
		c, err := Dial(addr, ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Credit far beyond the receive buffer: once the watcher stops
		// reading, the read loop blocks routing a notification into the
		// full channel, which is where Close finds it.
		w, err := c.Watch(ctx, "paths", WatchOptions{Window: 1, Manual: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Grant(1 << 20); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); len(w.ch) < cap(w.ch); {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the receive buffer never filled", round)
			}
			time.Sleep(100 * time.Microsecond)
		}
		c.Close()
		nctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		for {
			if _, ok := w.Next(nctx); !ok {
				break
			}
		}
		timedOut := nctx.Err() != nil
		cancel()
		if timedOut {
			t.Fatalf("round %d: watch did not end after Close", round)
		}
		if w.Err() == nil {
			t.Fatalf("round %d: watch ended without the connection error", round)
		}
	}
}

// TestStoreCloseEndsStreams: closing the store drains watch streams with a
// clean WATCH_END, not a connection error.
func TestStoreCloseEndsStreams(t *testing.T) {
	s, addr := newTestServer(t, "")
	c := dialTest(t, addr, "")
	ctx := context.Background()

	if _, err := c.Register(ctx, "paths", "R(x,y), S(y,z)"); err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(ctx, "paths", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	nctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if n, ok := w.Next(nctx); ok {
		t.Fatalf("notification after store close: %+v", n)
	}
	if w.Err() != nil {
		t.Fatalf("stream after store close err = %v, want clean end", w.Err())
	}
}

// TestFrameRoundTrip pins the frame encoding: append then read restores the
// frame, and a flipped byte is a CRC error. It also pins ReadFrame's two
// paths: a body that fits the reader's buffer is read at its exact size (a
// small frame costs two allocations), a longer one incrementally (a
// truncated frame claiming 60 MiB fails having allocated far less).
func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Type: FrameNotify, Stream: 42, Payload: []byte("hello frames")}
	b := AppendFrame(nil, f)
	got, err := ReadFrame(bufioReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != f.Type || got.Stream != f.Stream || string(got.Payload) != string(f.Payload) {
		t.Fatalf("round trip = %+v, want %+v", got, f)
	}

	b[len(b)-1] ^= 0x01
	if _, err := ReadFrame(bufioReader(b)); err == nil {
		t.Fatal("corrupted frame accepted")
	}

	const size = 1 << 16 // the reader buffer both ends use
	for _, bodyLen := range []int{size, size + 1} {
		f := Frame{Type: FrameQueryOK, Stream: 7, Payload: bytes.Repeat([]byte{0xa5}, bodyLen-bodyHeader)}
		got, err := ReadFrame(bufio.NewReaderSize(bytes.NewReader(AppendFrame(nil, f)), size))
		if err != nil {
			t.Fatalf("%d-byte body: %v", bodyLen, err)
		}
		if got.Type != f.Type || got.Stream != f.Stream || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("%d-byte body did not round-trip", bodyLen)
		}
	}

	truncated := AppendFrame(nil, Frame{Type: FrameQueryOK, Stream: 7, Payload: make([]byte, 100)})
	binary.LittleEndian.PutUint32(truncated, 60<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ReadFrame(bufio.NewReaderSize(bytes.NewReader(truncated), size))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated 60 MiB frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("truncated 60 MiB frame allocated %d bytes", grew)
	}

	small := AppendFrame(nil, Frame{Type: FrameSubmit, Stream: 3, Payload: make([]byte, 20)})
	rd := bytes.NewReader(small)
	br := bufio.NewReaderSize(rd, size)
	if allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(small)
		br.Reset(rd)
		if _, err := ReadFrame(br); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("a 20-byte frame costs %.0f allocations, want at most 2", allocs)
	}
}
