package storage

import (
	"math/rand"
	"reflect"
	"testing"

	"d2cq/internal/cq"
)

// tupleKeySet renders a tuple list as a key set (order-insensitive — Apply is
// set-semantic, so two batches only need to agree up to order).
func tupleKeySet(tuples [][]string) map[string]bool {
	out := make(map[string]bool, len(tuples))
	for _, t := range tuples {
		out[tupleMergeKey(t)] = true
	}
	return out
}

func assertSameDelta(t *testing.T, step int, got, want *Delta) {
	t.Helper()
	gr, wr := got.Relations(), want.Relations()
	if !reflect.DeepEqual(gr, wr) {
		t.Fatalf("step %d: relations %v, want %v", step, gr, wr)
	}
	for _, rel := range wr {
		if g, w := tupleKeySet(got.Insert[rel]), tupleKeySet(want.Insert[rel]); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d: %s inserts %v, want %v", step, rel, g, w)
		}
		if g, w := tupleKeySet(got.Delete[rel]), tupleKeySet(want.Delete[rel]); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d: %s deletes %v, want %v", step, rel, g, w)
		}
	}
}

// assertBatchLaw asserts the Coalescer's composition law on a taken batch:
// it lists no tuple twice in either half (so its size is bounded by the
// distinct tuples touched), and applying it once to base yields want, the
// database the coalesced deltas gave when applied one by one.
func assertBatchLaw(t *testing.T, round int, base cq.Database, batch *Delta, want cq.Database) {
	t.Helper()
	for _, rel := range batch.Relations() {
		for half, tuples := range [][][]string{batch.Insert[rel], batch.Delete[rel]} {
			if len(tupleKeySet(tuples)) != len(tuples) {
				t.Fatalf("round %d: %s half %d lists a tuple twice: %v", round, rel, half, tuples)
			}
		}
	}
	got := base.Clone()
	batch.ApplyToDatabase(got)
	for _, db := range []cq.Database{got, want} {
		for rel := range db {
			if g, w := tupleKeySet(got[rel]), tupleKeySet(want[rel]); !reflect.DeepEqual(g, w) {
				t.Fatalf("round %d: %s after the batch %v, after the deltas one by one %v", round, rel, g, w)
			}
		}
	}
}

// TestCoalescerMatchesSequentialApply drives a Coalescer through random
// delta streams. At every step, a coalescer taken and refilled there must
// obey the composition law against the deltas applied one by one, and the
// stream's coalescer must report the live size of that batch; the stream's
// own Take, at the end, must return the same batch (as sets) and reset it.
func TestCoalescerMatchesSequentialApply(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 50; round++ {
		base := cq.Database{}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			d := randomDelta(rng)
			for rel, tuples := range d.Insert {
				base[rel] = append(base[rel], tuples...)
			}
		}
		seq := base.Clone()
		c, step := NewCoalescer(), NewCoalescer()
		var batch *Delta
		steps := 1 + rng.Intn(20)
		for s := 0; s < steps; s++ {
			d := randomDelta(rng)
			d.ApplyToDatabase(seq)
			c.Merge(d)
			step.Merge(d)
			batch = step.Take()
			assertBatchLaw(t, round, base, batch, seq)
			if c.Size() != batch.Size() {
				t.Fatalf("round %d step %d: coalescer size %d, its batch lists %d", round, s, c.Size(), batch.Size())
			}
			if c.Empty() != batch.Empty() {
				t.Fatalf("round %d step %d: Empty %v, batch empty %v", round, s, c.Empty(), batch.Empty())
			}
			step.Merge(batch)
		}
		assertSameDelta(t, round, c.Take(), batch)
		// Take resets: the next stream starts from scratch.
		if !c.Empty() || c.Size() != 0 {
			t.Fatalf("round %d: coalescer not empty after Take", round)
		}
		d := NewDelta().Add("R", "post").Remove("S", "take")
		c.Merge(d)
		assertSameDelta(t, round, c.Take(), d)
	}
}

// TestCoalescerCancellation pins the I1∖D2 law: a later delete tombstones the
// earlier insert, a re-insert revives it, and Take never returns cancelled
// tuples.
func TestCoalescerCancellation(t *testing.T) {
	c := NewCoalescer()
	c.Merge(NewDelta().Add("R", "a", "b").Add("R", "c", "d"))
	if c.Size() != 2 {
		t.Fatalf("size after two inserts = %d, want 2", c.Size())
	}
	c.Merge(NewDelta().Remove("R", "a", "b"))
	if c.Size() != 2 { // one live insert + one delete
		t.Fatalf("size after cancelling delete = %d, want 2", c.Size())
	}
	// Cancel + revive + cancel again, interleaved with an unrelated tuple.
	c.Merge(NewDelta().Add("R", "a", "b"))
	c.Merge(NewDelta().Remove("R", "a", "b"))
	got := c.Take()
	if ins := tupleKeySet(got.Insert["R"]); len(ins) != 1 || !ins[tupleMergeKey([]string{"c", "d"})] {
		t.Fatalf("Take inserts = %v, want only (c,d)", got.Insert["R"])
	}
	if del := tupleKeySet(got.Delete["R"]); len(del) != 1 || !del[tupleMergeKey([]string{"a", "b"})] {
		t.Fatalf("Take deletes = %v, want only (a,b)", got.Delete["R"])
	}
	// Fully-cancelled relation: the insert map entry disappears entirely.
	c.Merge(NewDelta().Add("S", "x"))
	c.Merge(NewDelta().Remove("S", "x"))
	got = c.Take()
	if _, ok := got.Insert["S"]; ok {
		t.Fatalf("fully-cancelled relation still lists inserts: %v", got.Insert["S"])
	}
	if len(got.Delete["S"]) != 1 {
		t.Fatalf("delete of cancelled insert missing: %v", got.Delete["S"])
	}
}
