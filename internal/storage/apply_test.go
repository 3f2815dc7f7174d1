package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"d2cq/internal/cq"
)

// seededDB is a database of nRels binary relations r0, r1, … of rows tuples
// each: (i, 7i) per row, so every tuple is distinct and predictable.
func seededDB(nRels, rows int) cq.Database {
	db := cq.Database{}
	for r := 0; r < nRels; r++ {
		for i := 0; i < rows; i++ {
			db.Add(fmt.Sprint("r", r), fmt.Sprint(i), fmt.Sprint(i*7))
		}
	}
	return db
}

// TestApplyFailureLeavesDictionary: a delta is validated whole before
// anything is interned, so one whose SECOND relation (in name order) fails
// the arity check leaves the shared dictionary exactly as it was — it used to
// return the error after the first relation's new constants had gone in.
func TestApplyFailureLeavesDictionary(t *testing.T) {
	sdb := compileT(t, seededDB(2, 4))
	before := sdb.Dict.Len()
	bad := NewDelta().Add("r0", "brand", "new").Add("r1", "one", "too", "many")
	if _, err := sdb.Apply(bad); err == nil {
		t.Fatal("a ternary insert into a binary relation must fail")
	}
	if got := sdb.Dict.Len(); got != before {
		t.Fatalf("failed Apply grew the dictionary from %d to %d constants", before, got)
	}
	bad = NewDelta().Add("aa", "fresh", "relation").Remove("r1", "unary")
	if _, err := sdb.Apply(bad); err == nil {
		t.Fatal("a unary delete from a binary relation must fail")
	}
	if got := sdb.Dict.Len(); got != before {
		t.Fatalf("failed Apply grew the dictionary from %d to %d constants", before, got)
	}
	if sdb.Table("aa") != nil {
		t.Fatal("failed Apply created a relation")
	}
}

// TestApplyRowsTouchedScaling is Apply's complexity claim as a count, not a
// timing, in the manner of the engine's TestMaintRowsTouchedScaling: one
// tuple inserted and one deleted touch (hash, probe or copy) about as many
// rows in a relation of 32 000 rows as in one of 2 000, and in a database of
// 2 048 relations as in one of 128 — 16× the data, at most half as much work
// again (the tries deepen by a level). Summed over several tuples so that no
// single trie path decides the outcome.
func TestApplyRowsTouchedScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 32 000-row and a 2 048-relation fixture")
	}
	touched := func(nRels, rows int) uint64 {
		cur := compileT(t, seededDB(nRels, rows))
		apply := func(d *Delta) uint64 {
			next, err := cur.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
			return next.ApplyRows()
		}
		rel := func(k int) string { return fmt.Sprint("r", k*(nRels-1)/15) }
		// The first small delta into a relation converts it, once, O(rows):
		// that is not the steady state being measured.
		for k := 0; k < 16; k++ {
			apply(NewDelta().Add(rel(k), "warm", "up"))
		}
		var sum uint64
		for k := 0; k < 16; k++ {
			sum += apply(NewDelta().Add(rel(k), fmt.Sprint("new", k), "x"))
			sum += apply(NewDelta().Remove(rel(k), fmt.Sprint(k*rows/16), fmt.Sprint(k*rows/16*7)))
		}
		return sum
	}
	check := func(what string, small, large uint64) {
		t.Logf("rows touched by 32 one-tuple Applies, %s: %d → %d", what, small, large)
		if small == 0 {
			t.Fatalf("%s: ApplyRows did not move", what)
		}
		if 2*large > 3*small {
			t.Fatalf("%s: rows touched grew %d → %d (%.2f×) for 16× the data; want ≤ 1.5×", what, small, large, float64(large)/float64(small))
		}
	}
	check("2 000 → 32 000 rows per relation", touched(16, 2_000), touched(16, 32_000))
	check("128 → 2 048 relations", touched(128, 64), touched(2_048, 64))
}

// TestApplyFormsMidStream walks one relation through its one change of form —
// flat from Compile, persistent at the first delta — and on through deletes
// down to empty (the relation disappears), a re-insert (persistent from the
// empty map), more small deltas and one as large as the relation (still
// persistent), holding the content to an ApplyToDatabase mirror at every step
// and the parent snapshot to its own content afterwards.
func TestApplyFormsMidStream(t *testing.T) {
	mirror := seededDB(1, 6)
	cur := compileT(t, mirror.Clone())
	wantFlat := func(what string, flat bool) {
		t.Helper()
		if tb := cur.Table("r0"); tb == nil || tb.Flat() != flat {
			t.Fatalf("%s: table %v, want flat=%v", what, tb, flat)
		}
	}
	step := func(what string, d *Delta) {
		t.Helper()
		prev, prevRows := cur, rowsOf(cur, "r0")
		next, err := cur.Apply(d)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		d.ApplyToDatabase(mirror)
		cur = next
		want := map[string]int{}
		for _, tu := range mirror["r0"] {
			want[tu[0]+"|"+tu[1]+"|"]++
		}
		if got := rowsOf(cur, "r0"); !tuplesEqual(got, want) {
			t.Fatalf("%s: snapshot holds %v, mirror %v", what, got, want)
		}
		if got := rowsOf(prev, "r0"); !tuplesEqual(got, prevRows) {
			t.Fatalf("%s: Apply changed the parent snapshot: %v, was %v", what, got, prevRows)
		}
	}
	wantFlat("compiled", true)
	step("small insert", NewDelta().Add("r0", "a", "b"))
	wantFlat("after a small insert", false)
	step("small delete", NewDelta().Remove("r0", "0", "0"))
	wantFlat("after a small delete", false)
	// Delete down to one row, one tuple at a time, then the last one.
	for len(mirror["r0"]) > 0 {
		tu := mirror["r0"][0]
		step("delete "+tu[0], NewDelta().Remove("r0", tu...))
	}
	if cur.Table("r0") != nil || len(cur.Relations()) != 0 {
		t.Fatalf("a relation deleted to empty must disappear; relations %v", cur.Relations())
	}
	step("re-insert", NewDelta().Add("r0", "a", "b").Add("r0", "c", "d").Add("r0", "e", "f"))
	wantFlat("re-created", false)
	step("small insert again", NewDelta().Add("r0", "g", "h"))
	wantFlat("after a small insert again", false)
	step("no-op", NewDelta().Add("r0", "g", "h").Remove("r0", "never", "there"))
	step("delete and re-insert in one delta", NewDelta().Remove("r0", "a", "b").Add("r0", "a", "b"))
	step("bulk rewrite", NewDelta().Remove("r0", "a", "b").Remove("r0", "c", "d").Add("r0", "i", "j").Add("r0", "k", "l"))
	wantFlat("after a delta as large as the relation", false)
}

// TestApplyOneRule: every delta leaves the relation persistent, or absent
// when it empties it, whatever its size against the relation's — from one
// tuple to twice the relation, pure inserts, pure deletes and a whole
// replacement, into a flat table, a persistent one, an absent relation and a
// nullary one — and the content matches an ApplyToDatabase mirror.
func TestApplyOneRule(t *testing.T) {
	const rows = 16
	tuple := func(rel string, i int) []string {
		if rel == "p" {
			return nil
		}
		return []string{fmt.Sprint(i), fmt.Sprint(i * 7)}
	}
	inserts := func(rel string, from, n int) *Delta {
		d := NewDelta()
		for i := from; i < from+n; i++ {
			d.Add(rel, tuple(rel, i)...)
		}
		return d
	}
	deletes := func(rel string, n int) *Delta {
		d := NewDelta()
		for i := 0; i < n; i++ {
			d.Remove(rel, tuple(rel, i)...)
		}
		return d
	}
	replace := func(rel string, n int) *Delta {
		d := deletes(rel, rows)
		for i := rows; i < rows+n; i++ {
			d.Add(rel, tuple(rel, i)...)
		}
		return d
	}
	for _, n := range []int{1, 2, rows / 2, rows - 1, rows, rows + 1, 2 * rows} {
		cases := []struct {
			name string
			d    *Delta
		}{
			{"insert", inserts("r0", rows, n)},
			{"delete", deletes("r0", min(n, rows))},
			{"replace", replace("r0", n)},
			{"insert into absent", inserts("new", 0, n)},
			{"delete from absent", deletes("new", n)},
			{"nullary insert", inserts("p", 0, n)},
			{"nullary delete", deletes("p", n)},
		}
		for _, c := range cases {
			mirror := seededDB(1, rows)
			mirror.Add("p")
			base := compileT(t, mirror.Clone())
			// The same delta against the flat tables and against persistent
			// ones of the same content.
			persistent, err := base.Apply(NewDelta().Remove("r0", "0", "0").Add("r0", "0", "0").Remove("p").Add("p"))
			if err != nil {
				t.Fatal(err)
			}
			if persistent.Table("r0").Flat() || persistent.Table("p").Flat() {
				t.Fatal("a delete and re-insert left a flat table")
			}
			for _, from := range []*DB{base, persistent} {
				next, err := from.Apply(c.d)
				if err != nil {
					t.Fatalf("%s of %d: %v", c.name, n, err)
				}
				want := mirror.Clone()
				c.d.ApplyToDatabase(want)
				for _, rel := range []string{"r0", "new", "p"} {
					if tab := next.Table(rel); tab != nil && tab != from.Table(rel) && (tab.Flat() || tab.Rows() == 0) {
						t.Fatalf("%s of %d: %s is flat=%v with %d rows; want persistent and non-empty, or absent", c.name, n, rel, tab.Flat(), tab.Rows())
					}
					got, wantRows := rowsOf(next, rel), map[string]int{}
					for _, tu := range want[rel] {
						key := ""
						for _, v := range tu {
							key += v + "|"
						}
						wantRows[key]++
					}
					if !tuplesEqual(got, wantRows) {
						t.Fatalf("%s of %d: %s holds %v, mirror %v", c.name, n, rel, got, wantRows)
					}
				}
			}
		}
	}
}

// TestOldSnapshotReadableDuringApplies: an old snapshot keeps listing exactly
// its own rows while a thousand chained Applies derive successors from it —
// they share its trie nodes and never write to them. Run under -race.
func TestOldSnapshotReadableDuringApplies(t *testing.T) {
	const rows = 512
	base := compileT(t, seededDB(2, rows))
	// One small delta first, so the snapshot being read is in the persistent
	// form its successors edit.
	old, err := base.Apply(NewDelta().Add("r0", "first", "delta"))
	if err != nil {
		t.Fatal(err)
	}
	want := rowsOf(old, "r0")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := rowsOf(old, "r0"); !tuplesEqual(got, want) {
					t.Errorf("old snapshot lists %d rows mid-chain, want %d", len(got), len(want))
					return
				}
			}
		}()
	}
	cur := old
	deleted := map[int]bool{}
	for i := 0; i < 1000; i++ {
		d := NewDelta().Add("r0", fmt.Sprint("n", i), "x")
		if i%2 == 1 {
			d.Remove("r0", fmt.Sprint(i%rows), fmt.Sprint(i%rows*7))
			deleted[i%rows] = true
		}
		if cur, err = cur.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := rowsOf(old, "r0"); !tuplesEqual(got, want) {
		t.Fatalf("old snapshot changed under 1000 chained Applies")
	}
	if got, want := cur.Table("r0").Rows(), rows+1+1000-len(deleted); got != want {
		t.Fatalf("head of the chain holds %d rows, want %d", got, want)
	}
}

// TestEncodeDBIgnoresHistory: a persistent table encodes in its row map's
// order, and that order is a function of the content. Two databases that
// reached the same content along different histories of small deltas — other
// tuples, another order, rows that came and went in between — encode to the
// same bytes, and the bytes decode to that content. (A flat table encodes in
// the order its rows arrived, as it always did: making that canonical too
// would put a sort of every row into every checkpoint.)
func TestEncodeDBIgnoresHistory(t *testing.T) {
	base := compileT(t, seededDB(2, 64))
	apply := func(db *DB, ds ...*Delta) *DB {
		t.Helper()
		for _, d := range ds {
			next, err := db.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			db = next
		}
		return db
	}
	// The constants are interned up front, so both paths see one dictionary.
	base = apply(base, NewDelta().Add("r0", "p", "q").Add("r1", "p", "q"), NewDelta().Remove("r0", "p", "q").Remove("r1", "p", "q"))
	a := apply(base,
		NewDelta().Remove("r0", "1", "7"),
		NewDelta().Add("r0", "p", "q"),
		NewDelta().Remove("r1", "2", "14").Remove("r1", "3", "21"),
		NewDelta().Add("r1", "q", "p"))
	b := apply(base,
		NewDelta().Add("r1", "q", "p").Add("r1", "p", "p"),
		NewDelta().Remove("r1", "3", "21"),
		NewDelta().Add("r0", "p", "q").Add("r0", "q", "q").Remove("r0", "5", "35"),
		NewDelta().Remove("r1", "2", "14").Remove("r1", "p", "p"),
		NewDelta().Remove("r0", "q", "q").Add("r0", "5", "35").Remove("r0", "1", "7"))
	if a.Table("r0").Flat() || b.Table("r1").Flat() || a.Table("r0") == b.Table("r0") {
		t.Fatal("both histories were meant to leave distinct persistent tables")
	}
	var ea, eb bytes.Buffer
	if err := EncodeDB(&ea, a); err != nil {
		t.Fatal(err)
	}
	if err := EncodeDB(&eb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
		t.Fatalf("equal content along two histories encodes to different bytes (%d and %d)", ea.Len(), eb.Len())
	}
	got, err := DecodeDB(bytes.NewReader(ea.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"r0", "r1"} {
		if !tuplesEqual(rowsOf(got, rel), rowsOf(a, rel)) || !tuplesEqual(rowsOf(got, rel), rowsOf(b, rel)) {
			t.Fatalf("relation %s does not survive the round trip", rel)
		}
	}
}

// BenchmarkApplySingleTuple is storage's share of a one-tuple flush:
// alternately delete and re-insert one tuple of a relation of n rows. The
// three sizes cost about the same — an edit of one trie path — where a flat
// or partitioned copy grew with n.
func BenchmarkApplySingleTuple(b *testing.B) {
	for _, c := range []struct {
		name string
		rows int
	}{{"500", 500}, {"5k", 5_000}, {"80k", 80_000}} {
		b.Run(c.name, func(b *testing.B) {
			cur, err := Compile(seededDB(1, c.rows))
			if err != nil {
				b.Fatal(err)
			}
			del := NewDelta().Remove("r0", "3", "21")
			ins := NewDelta().Add("r0", "3", "21")
			for _, d := range []*Delta{del, ins} { // the one-off conversion stays out
				if cur, err = cur.Apply(d); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := del
				if i%2 == 1 {
					d = ins
				}
				if cur, err = cur.Apply(d); err != nil {
					b.Fatal(err)
				}
			}
			if want := c.rows - b.N%2; cur.Table("r0").Rows() != want {
				b.Fatalf("%d rows after %d toggles, want %d", cur.Table("r0").Rows(), b.N, want)
			}
		})
	}
}
