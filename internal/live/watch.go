package live

import "context"

// Notification is one result-change event of a watched query: the snapshot
// version that produced it, the new and previous counts, and the exact
// tuple-level diff (rows over the query's Vars, decoded to constant names).
// Concatenating the Added/Removed lists of consecutive notifications
// reconstructs the full result diff between any two snapshots a subscriber
// observed — unless Lagged reports a gap.
//
// Notifications are IMMUTABLE once published: one copy per flush sits in the
// query's shared broadcast ring, and every subscriber's delivered value
// shares its Added/Removed backing arrays with that ring entry and with
// every other subscriber of the query. Consumers must not mutate the rows;
// a consumer that needs to edit them (or hand them across a trust boundary)
// deep-copies first. The one per-subscriber field, Lagged, is set on the
// delivered copy only — never on the shared entry.
type Notification struct {
	Query     string     `json:"query"`
	Version   uint64     `json:"version"`
	Count     int64      `json:"count"`
	PrevCount int64      `json:"prev_count"`
	Added     [][]string `json:"added,omitempty"`
	Removed   [][]string `json:"removed,omitempty"`
	// Lagged counts the notifications this subscriber lost immediately
	// before this one because it fell off the tail of the query's broadcast
	// ring (slow-consumer drop). A lagged subscriber's diff stream has a
	// hole: re-read the full result (Solutions) to resynchronise.
	Lagged uint64 `json:"lagged,omitempty"`
}

// noLimit marks a live subscription: Cancel and Store.Close freeze limit at
// the ring end so entries appended afterwards are never delivered.
const noLimit = ^uint64(0)

// Subscription is one Watch registration: a cursor into the query's shared
// broadcast ring. Call Next (blocking) or TryNext (non-blocking) to receive;
// both return ok=false once the stream is over — after Cancel or Store.Close
// the remaining in-ring notifications drain first, then the stream ends.
// Receiving too slowly never blocks the store: a cursor that falls off the
// ring's tail skips ahead instead, and the loss surfaces as Lagged on the
// next delivered notification.
//
// A Subscription holds no per-subscriber buffer — every subscriber of a
// query reads the same ring entries — so a hot query with many watchers
// costs one ring slot per flush, not one copy per watcher. Next and TryNext
// are safe for concurrent use, but each notification is delivered to exactly
// one caller; a single consumer per subscription is the intended shape.
type Subscription struct {
	store *Store
	lq    *liveQuery
	id    int
	wake  chan struct{} // cap 1: signalled on append and on Grant, closed on Cancel/Close

	// Guarded by store.mu.
	cursor  uint64 // ring sequence of the next notification to deliver
	limit   uint64 // end of the stream, frozen at Cancel/Close; noLimit while live
	dropped uint64 // entries lost off the ring tail since the last delivery
	closed  bool

	// Credit-based flow control (EnableCredit): each delivery consumes one
	// credit, and a subscription whose credit is exhausted while the ring
	// holds undelivered entries is parked — its cursor stays put until Grant
	// adds credit — instead of being drained at whatever pace the consumer
	// manages. Parking is the explicit protocol state the wire server
	// surfaces; falling off the ring tail (Lagged) still bounds how long a
	// parked cursor can hold history.
	credited bool
	credit   uint64
	parked   bool
}

// Watch subscribes to result changes of a registered query. Every flush that
// changes the query's result produces one Notification carrying the exact
// diff against the previous snapshot; flushes the query's result absorbs are
// silent. Subscribers share the query's broadcast ring: fall behind by more
// than its capacity (Config.History) and the oldest unread notifications are
// lost, accounted in Lagged. Cancel (or Store.Close) ends the stream. The
// stream starts with the first flush to commit after admission, which is
// Subscribe's without a cursor.
func (s *Store) Watch(name string) (*Subscription, error) {
	sub, _, err := s.Subscribe(name, 0, false)
	return sub, err
}

// Next blocks until the next notification is available and returns it. It
// returns ok=false when the stream is over — the subscription was cancelled
// or the store closed, and every notification published before that point
// has been delivered — or when ctx is done, whichever comes first.
func (sub *Subscription) Next(ctx context.Context) (Notification, bool) {
	s := sub.store
	for {
		s.mu.Lock()
		n, ok, over := sub.takeLocked()
		s.mu.Unlock()
		if ok {
			return n, true
		}
		if over {
			return Notification{}, false
		}
		select {
		case <-ctx.Done():
			return Notification{}, false
		case <-sub.wake:
		}
	}
}

// TryNext returns the next notification without blocking; ok=false means
// nothing is pending right now (or the stream is over).
func (sub *Subscription) TryNext() (Notification, bool) {
	s := sub.store
	s.mu.Lock()
	n, ok, _ := sub.takeLocked()
	s.mu.Unlock()
	return n, ok
}

// takeLocked pops the subscriber's next ring entry. It returns the
// notification and ok=true, or ok=false with over reporting whether the
// stream has ended (cancelled/closed and fully drained). The returned value
// is a copy of the shared ring entry with Lagged set on the copy alone —
// the entry itself stays immutable for every other subscriber. Called with
// store.mu held.
func (sub *Subscription) takeLocked() (Notification, bool, bool) {
	lq := sub.lq
	if sub.cursor < lq.ringStart {
		// Entries evicted under this cursor with nobody accounting for it:
		// a cancelled subscription left the subscriber list, so append-time
		// eviction no longer charges it. Catch up here instead.
		sub.dropped += lq.ringStart - sub.cursor
		sub.cursor = lq.ringStart
	}
	end := lq.ringEnd()
	if sub.limit < end {
		end = sub.limit
	}
	if sub.cursor < end {
		if sub.credited && sub.credit == 0 {
			// Data is waiting but the consumer has granted no credit: park.
			// The cursor stays put — Grant resumes it — and a closed stream
			// with its credit exhausted ends here rather than wait for a
			// grant that will never come (its consumer is gone).
			sub.parked = true
			return Notification{}, false, sub.closed
		}
		n := lq.ring[sub.cursor-lq.ringStart]
		n.Lagged = sub.dropped
		sub.dropped = 0
		sub.cursor++
		if sub.credited {
			sub.credit--
		}
		return n, true, false
	}
	return Notification{}, false, sub.closed
}

// EnableCredit switches the subscription to credit-based flow control with
// the given initial credit: every delivered notification consumes one
// credit, and Next/TryNext deliver nothing while the credit is exhausted —
// the subscription parks with its cursor held in place until Grant adds
// more. Call it once, before the first Next/TryNext; the wire server enables
// it at WATCH admission so a stream's first notification already spends
// client-granted credit.
func (sub *Subscription) EnableCredit(initial uint64) {
	s := sub.store
	s.mu.Lock()
	sub.credited = true
	sub.credit = initial
	s.mu.Unlock()
}

// Grant adds n delivery credits and resumes the subscription if it was
// parked. A resume after a genuine stall (park with data waiting) counts in
// the query's backpressure stats. Granting to a cancelled or closed
// subscription is a no-op.
func (sub *Subscription) Grant(n uint64) {
	if n == 0 {
		return
	}
	s := sub.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if !sub.credited || sub.closed {
		return
	}
	sub.credit += n
	if sub.parked {
		sub.parked = false
		sub.lq.resumes++
		// Wake the consumer exactly like a ring append would: there is data
		// it skipped while parked. The send stays under mu so it cannot race
		// Cancel/Close closing the channel.
		select {
		case sub.wake <- struct{}{}:
		default:
		}
	}
}

// Cancel ends the subscription: notifications already published stay
// readable through Next/TryNext, later ones are never delivered, and once
// drained the stream reports over. Idempotent; safe concurrently with
// flushes. Cancel deliberately does NOT take flushMu — it must stay
// wait-free even mid-stage; a stage that computed a diff for a
// just-cancelled subscriber simply broadcasts to whoever is left.
func (sub *Subscription) Cancel() {
	s := sub.store
	s.mu.Lock()
	if sub.closed {
		s.mu.Unlock()
		return
	}
	sub.closed = true
	sub.limit = sub.lq.ringEnd()
	subs := sub.lq.subs
	for i, other := range subs {
		if other == sub {
			sub.lq.subs = append(subs[:i], subs[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	// Removing the subscription from lq.subs above is what makes this safe:
	// broadcastLocked only signals subscribers still on the list, so no
	// send can race the close.
	close(sub.wake)
}
