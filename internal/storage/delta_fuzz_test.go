package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"d2cq/internal/cq"
)

// FuzzDeltaScript decodes arbitrary bytes into a script of insert/delete
// deltas over a small fixed schema and applies it step by step, checking the
// DB.Apply invariants after every delta:
//
//   - the snapshot agrees with a from-scratch Compile of a plain-database
//     mirror maintained by Delta.ApplyToDatabase (set semantics and
//     deletes-first, via the single source of truth);
//   - a tuple listed in both Delete and Insert ends up present
//     (deletes-first, checked directly);
//   - no table ever holds a duplicate tuple (set semantics);
//   - every relation the delta does not touch — and every touched relation
//     whose content does not actually change — keeps its Table pointer
//     (the dirtiness protocol of BoundQuery.Rebind depends on it);
//   - the parent snapshot's tables are bit-identical afterwards
//     (copy-on-write: Apply never mutates the receiver);
//   - DiffTables between the old and the new table of every relation lists
//     exactly the rows that left and the rows that came (the old rows minus
//     the first plus the second are the new rows, as sets);
//   - a Coalescer is equivalent to sequential application: the script so
//     far, coalesced into one batch and applied to the initial snapshot,
//     yields the same database as the step-by-step chain at every delta
//     boundary (a coalescer taken there and refilled with its batch);
//   - a Coalescer fed the whole stream, taken only at the end, reports that
//     batch's live size at every boundary and takes the same batch as sets —
//     its tombstones over a long stream preserve the semantics;
//   - the Delta byte codec round-trips every delta of the script exactly.
func FuzzDeltaScript(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 1}) // one insert into R
	f.Add([]byte{0x00, 1}) // one delete from R
	// Insert and delete the same S tuple inside one delta (deletes-first).
	f.Add([]byte{0x02, 3, 4, 0x43, 3, 4})
	// Two deltas: T insert, then the same T tuple deleted.
	f.Add([]byte{0x45, 0, 1, 2, 0x44, 0, 1, 2})
	f.Add([]byte{0x01, 9, 0x41, 9, 0x03, 9, 9, 0x05, 9, 9, 9})
	f.Fuzz(func(t *testing.T, script []byte) {
		relNames := []string{"R", "S", "T"}
		arity := map[string]int{"R": 1, "S": 2, "T": 3}
		initial := cq.Database{}
		initial.Add("R", "c0")
		initial.Add("S", "c0", "c1")
		initial.Add("S", "c1", "c2")
		initial.Add("T", "c0", "c1", "c2")
		cur, err := Compile(initial)
		if err != nil {
			t.Fatal(err)
		}
		base := cur // the initial snapshot, for the coalescing law
		co, step := NewCoalescer(), NewCoalescer()
		mirror := initial.Clone()

		// Decode: each op is one tag byte (bit0 insert/delete, bits1-2 the
		// relation, bit6 delta boundary) followed by arity constant bytes.
		const maxOps = 48
		delta := NewDelta()
		ops := 0
		for i := 0; i < len(script) && ops < maxOps; {
			tag := script[i]
			i++
			rel := relNames[int(tag>>1)%len(relNames)]
			k := arity[rel]
			if i+k > len(script) {
				break
			}
			tuple := make([]string, k)
			for j := 0; j < k; j++ {
				tuple[j] = fmt.Sprintf("c%d", script[i+j]%8)
			}
			i += k
			if tag&1 == 1 {
				delta.Add(rel, tuple...)
			} else {
				delta.Remove(rel, tuple...)
			}
			ops++
			if tag&0x40 != 0 {
				cur, mirror = applyAndCheck(t, cur, mirror, delta)
				checkCodec(t, delta)
				checkCoalescing(t, co, step, delta, base, cur)
				delta = NewDelta()
			}
		}
		cur, _ = applyAndCheck(t, cur, mirror, delta)
		checkCodec(t, delta)
		batch := checkCoalescing(t, co, step, delta, base, cur)
		checkCoalesced(t, co.Take(), batch)
	})
}

// checkCoalescing merges one delta into the stream's coalescer co and into
// step, takes step's batch and asserts the coalescing law on it: applied to
// the initial snapshot base, the batch yields want, the snapshot the
// sequential Apply chain reached, and co's live size is the batch's. step is
// refilled with the batch, so it carries the stream on; the batch is
// returned.
func checkCoalescing(t *testing.T, co, step *Coalescer, delta *Delta, base, want *DB) *Delta {
	t.Helper()
	co.Merge(delta)
	step.Merge(delta)
	batch := step.Take()
	step.Merge(batch)
	if co.Size() != batch.Size() {
		t.Fatalf("coalescer size %d, its batch lists %d", co.Size(), batch.Size())
	}
	got, err := base.Apply(batch)
	if err != nil {
		t.Fatalf("Apply(batch): %v", err)
	}
	names := map[string]bool{}
	for _, n := range got.Relations() {
		names[n] = true
	}
	for _, n := range want.Relations() {
		names[n] = true
	}
	for name := range names {
		g := tableTuples(got.Table(name), got.Dict)
		w := tableTuples(want.Table(name), want.Dict)
		if !tuplesEqual(g, w) {
			t.Fatalf("relation %s: coalesced batch yields %v, sequential chain %v (batch %v/%v)",
				name, keys(g), keys(w), batch.Insert, batch.Delete)
		}
	}
	return batch
}

// checkCodec asserts the Delta byte codec round-trips the delta exactly
// (relation set, tuple lists, order).
func checkCodec(t *testing.T, d *Delta) {
	t.Helper()
	got, err := DecodeDelta(EncodeDelta(d))
	if err != nil {
		t.Fatalf("DecodeDelta(EncodeDelta): %v", err)
	}
	if !slices.Equal(got.Relations(), d.Relations()) {
		t.Fatalf("codec relations %v, want %v", got.Relations(), d.Relations())
	}
	for _, rel := range d.Relations() {
		if !slices.EqualFunc(got.Insert[rel], d.Insert[rel], slices.Equal) {
			t.Fatalf("codec inserts of %s: %v, want %v", rel, got.Insert[rel], d.Insert[rel])
		}
		if !slices.EqualFunc(got.Delete[rel], d.Delete[rel], slices.Equal) {
			t.Fatalf("codec deletes of %s: %v, want %v", rel, got.Delete[rel], d.Delete[rel])
		}
	}
}

// checkCoalesced asserts a Coalescer's taken batch equals another batch of
// the same stream, as per-relation tuple sets.
func checkCoalesced(t *testing.T, got, want *Delta) {
	t.Helper()
	if !slices.Equal(got.Relations(), want.Relations()) {
		t.Fatalf("coalesced relations %v, step batch %v", got.Relations(), want.Relations())
	}
	asSet := func(tuples [][]string) map[string]bool {
		out := make(map[string]bool, len(tuples))
		for _, tu := range tuples {
			out[tupleKey(tu)] = true
		}
		return out
	}
	sameSet := func(a, b map[string]bool) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	for _, rel := range want.Relations() {
		if !sameSet(asSet(got.Insert[rel]), asSet(want.Insert[rel])) {
			t.Fatalf("coalesced inserts of %s: %v, step batch %v", rel, got.Insert[rel], want.Insert[rel])
		}
		if !sameSet(asSet(got.Delete[rel]), asSet(want.Delete[rel])) {
			t.Fatalf("coalesced deletes of %s: %v, step batch %v", rel, got.Delete[rel], want.Delete[rel])
		}
	}
}

// checkTableDiff asserts the DiffTables contract of one Apply step for every
// relation of either snapshot: the reported gone rows are rows of the old
// table, the came rows are not, and old ∖ gone ∪ came is the new table.
func checkTableDiff(t *testing.T, cur, next *DB, delta *Delta) {
	t.Helper()
	names := map[string]bool{}
	for _, n := range cur.Relations() {
		names[n] = true
	}
	for _, n := range next.Relations() {
		names[n] = true
	}
	key := func(row []Value) string {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = next.Dict.Name(v)
		}
		return strings.Join(parts, "\x00")
	}
	for name := range names {
		oldT, newT := cur.Table(name), next.Table(name)
		rec := tableTuples(oldT, cur.Dict)
		DiffTables(oldT, newT, func(row []Value) {
			if rec[key(row)] != 1 {
				t.Fatalf("relation %s: diff reports %q gone, which the old table does not hold", name, key(row))
			}
			delete(rec, key(row))
		}, func(row []Value) {
			if rec[key(row)] != 0 {
				t.Fatalf("relation %s: diff reports %q came, which the old table already holds", name, key(row))
			}
			rec[key(row)] = 1
		})
		if got := tableTuples(newT, next.Dict); !tuplesEqual(rec, got) {
			t.Fatalf("relation %s: old rows patched by the diff are %v, new table holds %v (delta %v/%v)",
				name, keys(rec), keys(got), delta.Insert, delta.Delete)
		}
	}
}

// applyAndCheck applies one delta to the snapshot and the mirror and runs
// every invariant check, returning the new pair.
func applyAndCheck(t *testing.T, cur *DB, mirror cq.Database, delta *Delta) (*DB, cq.Database) {
	t.Helper()
	prevTuples := map[string]map[string]int{}
	for _, name := range cur.Relations() {
		prevTuples[name] = tableTuples(cur.Table(name), cur.Dict)
	}
	next, err := cur.Apply(delta)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	checkTableDiff(t, cur, next, delta)
	oldMirror := mirror.Clone()
	delta.ApplyToDatabase(mirror)

	// Copy-on-write: the parent snapshot is untouched.
	for _, name := range cur.Relations() {
		if got := tableTuples(cur.Table(name), cur.Dict); !tuplesEqual(got, prevTuples[name]) {
			t.Fatalf("Apply mutated the parent snapshot's relation %s", name)
		}
	}

	// Agreement with a from-scratch compile of the mirror, and set
	// semantics (no duplicate rows anywhere).
	rec, err := Compile(mirror)
	if err != nil {
		t.Fatalf("Compile(mirror): %v", err)
	}
	names := map[string]bool{}
	for _, n := range next.Relations() {
		names[n] = true
	}
	for _, n := range rec.Relations() {
		names[n] = true
	}
	for name := range names {
		got := tableTuples(next.Table(name), next.Dict)
		want := tableTuples(rec.Table(name), rec.Dict)
		if !tuplesEqual(got, want) {
			t.Fatalf("relation %s: snapshot %v, recompiled mirror %v (delta %v/%v)",
				name, keys(got), keys(want), delta.Insert, delta.Delete)
		}
		for tuple, n := range got {
			if n > 1 {
				t.Fatalf("relation %s holds tuple %q %d times — tables must be sets", name, tuple, n)
			}
		}
	}

	// Deletes-first: a tuple in both halves of the delta ends up present.
	for rel, ins := range delta.Insert {
		for _, tuple := range ins {
			both := false
			for _, del := range delta.Delete[rel] {
				if slices.Equal(tuple, del) {
					both = true
					break
				}
			}
			if !both {
				continue
			}
			got := tableTuples(next.Table(rel), next.Dict)
			if got[tupleKey(tuple)] == 0 {
				t.Fatalf("tuple %v in both Delete and Insert of %s must survive (deletes apply first)", tuple, rel)
			}
		}
	}

	// Pointer stability: untouched relations always keep their Table, and
	// touched relations the delta does not actually change (every delete
	// absent, every insert already present) keep it too. A delete-and-
	// reinsert of a present tuple counts as a change even though the net
	// content is equal — the predicate mirrors applyToTable's exactly.
	touched := map[string]bool{}
	for _, rel := range delta.Relations() {
		touched[rel] = true
	}
	for name := range names {
		if !touched[name] {
			if next.Table(name) != cur.Table(name) {
				t.Fatalf("untouched relation %s got a new Table pointer", name)
			}
			continue
		}
		if !deltaChanges(oldMirror[name], delta.Insert[name], delta.Delete[name]) &&
			next.Table(name) != cur.Table(name) {
			t.Fatalf("relation %s was touched but unchanged, yet its Table pointer moved", name)
		}
	}
	return next, mirror
}

// deltaChanges reports whether applying the inserts and deletes (deletes
// first, set semantics) actually changes the relation: some delete hits a
// present tuple or some insert lands on an absent one.
func deltaChanges(old [][]string, inserts, deletes [][]string) bool {
	present := map[string]bool{}
	for _, t := range old {
		present[tupleKey(t)] = true
	}
	changed := false
	for _, t := range deletes {
		if present[tupleKey(t)] {
			changed = true
			delete(present, tupleKey(t))
		}
	}
	for _, t := range inserts {
		if !present[tupleKey(t)] {
			changed = true
			present[tupleKey(t)] = true
		}
	}
	return changed
}

// tableTuples renders a table's rows as a multiset of decoded tuples (nil
// table = empty).
func tableTuples(tb *Table, d *Dict) map[string]int {
	out := map[string]int{}
	if tb == nil {
		return out
	}
	tb.Scan(func(row []Value) {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = d.Name(v)
		}
		out[strings.Join(parts, "\x00")]++
	})
	return out
}

func tupleKey(tuple []string) string { return strings.Join(tuple, "\x00") }

func tuplesEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, strings.ReplaceAll(k, "\x00", ","))
	}
	sort.Strings(out)
	return out
}
