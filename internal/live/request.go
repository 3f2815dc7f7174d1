package live

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// The request core: what a register, a submit and a watch mean, and how a
// failed one is classified. cmd/d2cqd's HTTP handlers and internal/wire's
// frame handlers are codecs over it — decode, call here, encode — so the two
// front ends answer every request alike.

// ErrUnknownQuery wraps the rejection of a name no query is registered under.
var ErrUnknownQuery = errors.New("live: unknown query")

func unknownQuery(name string) error { return fmt.Errorf("%w %q", ErrUnknownQuery, name) }

// Snapshot is where a watch stream starts: the query's result as of the
// version the stream's cursor was placed at. Resumed reports that the cursor
// presented was covered, so the missed changes are queued on the stream and
// the snapshot is informational; otherwise the snapshot is the subscriber's
// synchronisation point, and Lagged flags a cursor presented but not covered.
type Snapshot struct {
	Query   string   `json:"query"`
	Version uint64   `json:"version"`
	Count   int64    `json:"count"`
	Vars    []string `json:"vars"`
	Lagged  bool     `json:"lagged,omitempty"`
	Resumed bool     `json:"-"`
}

// Subscribe watches a registered query's result changes (see Watch) and
// reads the snapshot the stream starts from, in one hold of flushMu and mu:
// the cursor and the snapshot are the same committed version, so the first
// notification delivered is the first change past the snapshot — never one
// the snapshot already holds. Admission waits for a flush in progress to
// commit.
//
// With hasCursor, from is the last version the subscriber fully processed
// (the Version of its last notification, or of the snapshot it loaded). When
// the query's ring (Config.History) still holds every change past it, the
// stream resumes there: the missed notifications are delivered in order,
// exactly once, with no gap before the live ones. Otherwise the stream
// carries only future changes and the snapshot is Lagged: the subscriber
// re-reads the result (Solutions), as after a Lagged drop. Cursors survive a
// durable store's restart, whose replay refills the rings; an in-memory
// store starts past every version an earlier run handed out (NewStore), so
// such a cursor is never resumed.
func (s *Store) Subscribe(name string, from uint64, hasCursor bool) (*Subscription, Snapshot, error) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, Snapshot{}, ErrClosed
	}
	lq, ok := s.queries[name]
	if !ok {
		return nil, Snapshot{}, unknownQuery(name)
	}
	sub := &Subscription{store: s, lq: lq, id: s.nextSubID, wake: make(chan struct{}, 1), limit: noLimit, cursor: lq.ringEnd()}
	s.nextSubID++
	lq.subs = append(lq.subs, sub)
	// Every change past the floor is in the ring, so a cursor at or above it
	// (and not from a future the store never produced) resumes exactly.
	resumed := hasCursor && from >= lq.histFloor && from <= s.version
	if resumed {
		sub.cursor = lq.ringStart + uint64(sort.Search(len(lq.ring), func(i int) bool { return lq.ring[i].Version > from }))
	}
	return sub, Snapshot{Query: name, Version: s.version, Count: lq.count, Vars: lq.bound.Vars(),
		Lagged: hasCursor && !resumed, Resumed: resumed}, nil
}

// RegisterText parses src and registers it under name, answering with the
// query's summary. A request without both, or a query that does not parse or
// compile, is a bad request.
func RegisterText(ctx context.Context, svc Service, name, src string) (QueryInfo, error) {
	if name == "" || src == "" {
		return QueryInfo{}, badRequest{errors.New("name and query are required")}
	}
	q, err := cq.ParseQuery(src)
	if err == nil {
		err = svc.Register(ctx, name, q)
	}
	if err != nil {
		if Classify(err) == Internal {
			err = badRequest{err}
		}
		return QueryInfo{}, err
	}
	return svc.Info(name)
}

// Ack answers a submit: a version at which the delta is visible (sync) or
// the version current when it was queued, and the pending batch's tuple
// count after it.
type Ack struct {
	Version       uint64 `json:"version"`
	PendingTuples int    `json:"pending_tuples"`
}

// SubmitAck submits delta, waiting for the flush that makes it visible when
// sync is set, and acknowledges it.
func SubmitAck(ctx context.Context, svc Service, delta *storage.Delta, sync bool) (Ack, error) {
	var version uint64
	var err error
	if sync {
		version, err = svc.SubmitSync(ctx, delta)
	} else if err = svc.Submit(delta); err == nil {
		version = svc.Version()
	}
	if err != nil {
		return Ack{}, err
	}
	return Ack{Version: version, PendingTuples: svc.PendingTuples()}, nil
}

// Class is what a failed request says about itself. Each front end maps every
// class onto one HTTP status and one wire error code.
type Class uint8

const (
	// Internal: the store failed — a flush, which may carry other
	// submitters' tuples, or an enumeration.
	Internal Class = iota
	// BadRequest: the request is wrong — a query that does not parse or
	// compile, a delta of the wrong arity.
	BadRequest
	UnknownQuery
	Conflict // the name is taken by a different query
	Closed
)

// badRequest marks an error the request caused, keeping its message.
type badRequest struct{ error }

func (e badRequest) Unwrap() error { return e.error }

// Classify classifies a failed request by the sentinel it wraps.
func Classify(err error) Class {
	switch {
	case errors.Is(err, ErrClosed):
		return Closed
	case errors.Is(err, ErrQueryConflict):
		return Conflict
	case errors.Is(err, ErrUnknownQuery):
		return UnknownQuery
	case errors.Is(err, ErrInvalidDelta), errors.As(err, new(badRequest)):
		return BadRequest
	}
	return Internal
}
