package storage

// Coalescer accumulates a stream of deltas into one pending batch: applying
// the batch once yields the database that applying the deltas one by one
// does. It keeps a key index of the pending tuples between merges, so each
// merge costs time proportional to the merged delta, not to the batch, and a
// B-delta batch costs O(B). live.Store keeps one as its pending delta and
// takes it on flush.
//
// The composition law: per relation, Delete grows as D1 ∪ D2 and Insert as
// (I1 ∖ D2) ∪ I2 — the later delta's deletes cancel the earlier inserts, and
// deletes-first makes re-inserted tuples survive. Both halves stay
// set-deduplicated. Cancelled inserts (an earlier insert deleted by a later
// delta) are tombstoned in the key index and physically dropped when the
// batch is taken, so Take returns a clean Delta. The insert tuples retained
// between cancellation and Take stay visible through Pending — harmless for
// arity validation, because every tuple accepted into one relation of the
// batch passed the same arity check.
//
// A Coalescer is not safe for concurrent use; live.Store guards it with the
// store lock, like the pending delta it wraps.
type Coalescer struct {
	d *Delta
	// ins and del index the live tuple keys of d.Insert / d.Delete per
	// relation; cancelled holds insert keys tombstoned by a later delete
	// (their tuples still sit in d.Insert until Take filters them).
	ins, del, cancelled map[string]map[string]struct{}
	size                int
}

// NewCoalescer returns an empty coalescer.
func NewCoalescer() *Coalescer {
	return &Coalescer{
		d:         NewDelta(),
		ins:       map[string]map[string]struct{}{},
		del:       map[string]map[string]struct{}{},
		cancelled: map[string]map[string]struct{}{},
	}
}

// keySet returns the key set of m[rel], creating it on first use.
func keySet(m map[string]map[string]struct{}, rel string) map[string]struct{} {
	ks := m[rel]
	if ks == nil {
		ks = map[string]struct{}{}
		m[rel] = ks
	}
	return ks
}

// Merge folds a later delta into the pending batch in O(|other|). The batch
// keeps references to other's tuple slices; do not mutate them afterwards.
func (c *Coalescer) Merge(other *Delta) {
	if other.Empty() {
		return
	}
	for _, rel := range other.Relations() {
		if dels := other.Delete[rel]; len(dels) > 0 {
			ins, del, cancelled := keySet(c.ins, rel), keySet(c.del, rel), keySet(c.cancelled, rel)
			for _, t := range dels {
				k := tupleMergeKey(t)
				if _, hit := ins[k]; hit {
					// A later delete cancels the earlier insert (I1 ∖ D2).
					delete(ins, k)
					cancelled[k] = struct{}{}
					c.size--
				}
				if _, dup := del[k]; !dup {
					del[k] = struct{}{}
					c.d.Delete[rel] = append(c.d.Delete[rel], t)
					c.size++
				}
			}
		}
		if inss := other.Insert[rel]; len(inss) > 0 {
			ins, cancelled := keySet(c.ins, rel), keySet(c.cancelled, rel)
			for _, t := range inss {
				k := tupleMergeKey(t)
				if _, hit := ins[k]; hit {
					continue // already pending
				}
				ins[k] = struct{}{}
				c.size++
				if _, was := cancelled[k]; was {
					// Re-insert after cancellation: the tuple is still parked
					// in d.Insert, so un-tombstoning it is enough (deletes
					// apply first, so the delete already recorded keeps the
					// right semantics).
					delete(cancelled, k)
					continue
				}
				c.d.Insert[rel] = append(c.d.Insert[rel], t)
			}
		}
	}
}

// Take detaches the accumulated batch — with every tombstoned insert filtered
// out — and resets the coalescer to empty. The returned delta is the
// composition of everything merged since the last Take.
func (c *Coalescer) Take() *Delta {
	d := c.d
	for rel, cancelled := range c.cancelled {
		if len(cancelled) == 0 {
			continue
		}
		kept := d.Insert[rel][:0]
		for _, t := range d.Insert[rel] {
			if _, dead := cancelled[tupleMergeKey(t)]; !dead {
				kept = append(kept, t)
			}
		}
		if len(kept) == 0 {
			delete(d.Insert, rel)
		} else {
			d.Insert[rel] = kept
		}
	}
	*c = *NewCoalescer()
	return d
}

// Pending exposes the accumulating delta for read-only inspection (arity
// validation against pending tuples). Cancelled inserts may still be listed;
// Take is the only way to get the cleaned batch.
func (c *Coalescer) Pending() *Delta { return c.d }

// Size returns the number of live tuples in the batch (deletes plus
// non-cancelled inserts) — the number of tuples Take's batch will list.
func (c *Coalescer) Size() int { return c.size }

// Empty reports whether the batch holds no live tuples.
func (c *Coalescer) Empty() bool { return c.size == 0 }
