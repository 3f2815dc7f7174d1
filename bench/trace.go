package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/live"
	"d2cq/internal/storage"
	"d2cq/internal/wal"
)

// span is one timed call at a layer boundary. Start and End are nanoseconds
// since the tracer was created; Parent is the index of the span that caused
// this one (-1 for a root) and Op the generated operation it belongs to (-1
// when the call serves no single op).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer collects spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, which is how the untraced run is untraced.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	phase int // index of the first span of the phase being measured
	// byTuple maps an in-flight submit's tuple to its client span, so the
	// service-side span of the same op can name its parent.
	byTuple map[string]int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), byTuple: map[string]int{}} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// startPhase makes durations ignore every span recorded so far (set-up's).
func (t *tracer) startPhase() {
	t.mu.Lock()
	t.phase = len(t.spans)
	t.mu.Unlock()
}

// durations lists the lengths of the measured phase's finished spans with
// the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans[t.phase:] {
		if s.Name == name && s.End >= s.Start {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func tupleKey(rel string, tuple []string) string { return rel + "(" + strings.Join(tuple, ",") + ")" }

// link records that the client span `id` is sending this tuple; unlink
// forgets it once the reply is in.
func (t *tracer) link(key string, id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.byTuple[key] = id
	t.mu.Unlock()
}

func (t *tracer) unlink(key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.byTuple, key)
	t.mu.Unlock()
}

// parentOf finds the client span (and its op) behind a submitted delta.
func (t *tracer) parentOf(d *storage.Delta) (int, int64) {
	if t == nil {
		return -1, -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, side := range []map[string][][]string{d.Insert, d.Delete} {
		for rel, tuples := range side {
			for _, tu := range tuples {
				if id, ok := t.byTuple[tupleKey(rel, tu)]; ok {
					return id, t.spans[id].Op
				}
			}
		}
	}
	return -1, -1
}

// tracedService is a live.Service that records one span around every call it
// forwards. It changes no argument and no result: it is the seam between the
// wire server and the store, seen from the benchmark's side.
type tracedService struct {
	live.Service
	t *tracer
}

func (s tracedService) Register(ctx context.Context, name string, q cq.Query) error {
	id := s.t.begin("live.Register", -1, -1)
	defer s.t.end(id)
	return s.Service.Register(ctx, name, q)
}

func (s tracedService) Submit(delta *storage.Delta) error {
	parent, op := s.t.parentOf(delta)
	id := s.t.begin("live.Submit", parent, op)
	defer s.t.end(id)
	return s.Service.Submit(delta)
}

func (s tracedService) Flush(ctx context.Context) error {
	id := s.t.begin("live.Flush", -1, -1)
	defer s.t.end(id)
	return s.Service.Flush(ctx)
}

func (s tracedService) Solutions(ctx context.Context, name string, limit int) ([][]string, uint64, error) {
	id := s.t.begin("live.Solutions", -1, -1)
	defer s.t.end(id)
	return s.Service.Solutions(ctx, name, limit)
}

func (s tracedService) Watch(name string) (*live.Subscription, error) {
	id := s.t.begin("live.Watch", -1, -1)
	defer s.t.end(id)
	return s.Service.Watch(name)
}

// tracedBackend is a wal.Backend that records spans around the calls that
// write: segment appends and syncs, and checkpoint publication. Reads and
// directory listings pass straight through the embedded backend.
type tracedBackend struct {
	wal.Backend
	t *tracer

	mu        sync.Mutex
	segBytes  int64 // bytes appended to log segments
	ckptBytes int64 // bytes written into checkpoints
}

func (b *tracedBackend) CreateSegment(start uint64) (wal.SegmentWriter, error) {
	w, err := b.Backend.CreateSegment(start)
	if err != nil {
		return nil, err
	}
	return &tracedSegment{SegmentWriter: w, b: b}, nil
}

func (b *tracedBackend) WriteCheckpoint(lsn uint64, write func(io.Writer) error) error {
	id := b.t.begin("wal.WriteCheckpoint", -1, -1)
	defer b.t.end(id)
	return b.Backend.WriteCheckpoint(lsn, func(w io.Writer) error {
		return write(countingWriter{w: w, b: b})
	})
}

func (b *tracedBackend) written() (seg, ckpt int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.segBytes, b.ckptBytes
}

type tracedSegment struct {
	wal.SegmentWriter
	b *tracedBackend
}

func (s *tracedSegment) Write(p []byte) (int, error) {
	id := s.b.t.begin("wal.Write", -1, -1)
	n, err := s.SegmentWriter.Write(p)
	s.b.t.end(id)
	s.b.mu.Lock()
	s.b.segBytes += int64(n)
	s.b.mu.Unlock()
	return n, err
}

func (s *tracedSegment) Sync() error {
	id := s.b.t.begin("wal.Sync", -1, -1)
	defer s.b.t.end(id)
	return s.SegmentWriter.Sync()
}

type countingWriter struct {
	w io.Writer
	b *tracedBackend
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.b.mu.Lock()
	c.b.ckptBytes += int64(n)
	c.b.mu.Unlock()
	return n, err
}
