package storage

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"d2cq/internal/cq"
)

func compileT(t *testing.T, db cq.Database) *DB {
	t.Helper()
	sdb, err := Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	return sdb
}

// rows renders a table as string tuples for comparison.
func rowsOf(db *DB, rel string) map[string]int {
	out := map[string]int{}
	t := db.Table(rel)
	if t == nil {
		return out
	}
	t.Scan(func(row []Value) {
		key := ""
		for _, v := range row {
			key += db.Dict.Name(v) + "|"
		}
		out[key]++
	})
	return out
}

func TestApplyInsertDelete(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "a", "b")
	db.Add("R", "b", "c")
	db.Add("S", "x")
	sdb := compileT(t, db)

	delta := NewDelta().Add("R", "c", "d").Remove("R", "a", "b")
	ndb, err := sdb.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsOf(ndb, "R")
	want := map[string]int{"b|c|": 1, "c|d|": 1}
	if len(got) != len(want) {
		t.Fatalf("R = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("R = %v, want %v", got, want)
		}
	}
	// Old snapshot untouched.
	old := rowsOf(sdb, "R")
	if len(old) != 2 || old["a|b|"] != 1 {
		t.Fatalf("old snapshot mutated: %v", old)
	}
	// Untouched relation shares the Table pointer.
	if sdb.Table("S") != ndb.Table("S") {
		t.Error("untouched relation S should share its table across snapshots")
	}
	if sdb.Table("R") == ndb.Table("R") {
		t.Error("touched relation R should not share its table")
	}
	// Shared dictionary: old values stable, new constant appended.
	if v, ok := ndb.Dict.Lookup("d"); !ok || ndb.Dict.Name(v) != "d" {
		t.Error("new constant d not interned")
	}
	if sdb.Dict != ndb.Dict {
		t.Error("snapshots should share the dictionary")
	}
}

func TestApplyNoOpKeepsPointer(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "a", "b")
	sdb := compileT(t, db)

	// Insert a present tuple, delete an absent one: content unchanged.
	delta := NewDelta().Add("R", "a", "b").Remove("R", "z", "z")
	ndb, err := sdb.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	if sdb.Table("R") != ndb.Table("R") {
		t.Error("no-op delta should keep the old table pointer")
	}
	// Deleting a tuple whose constants were never interned must not intern
	// them.
	if _, ok := sdb.Dict.Lookup("z"); ok {
		t.Error("delete of unseen constant interned it")
	}
	// Deleting from an absent relation is a no-op, not an error.
	ndb2, err := sdb.Apply(NewDelta().Remove("Absent", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if ndb2.Table("Absent") != nil {
		t.Error("delete against absent relation created a table")
	}
}

func TestApplyDeleteThenInsertSameTuple(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "a", "b")
	sdb := compileT(t, db)
	// Delete applies first, insert wins: the tuple stays present.
	ndb, err := sdb.Apply(NewDelta().Remove("R", "a", "b").Add("R", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(ndb, "R"); got["a|b|"] != 1 || len(got) != 1 {
		t.Fatalf("R = %v, want {a|b|: 1}", got)
	}
}

func TestApplyNewAndEmptiedRelations(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "a")
	sdb := compileT(t, db)
	ndb, err := sdb.Apply(NewDelta().Add("New", "x", "y").Remove("R", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if ndb.Table("New") == nil || ndb.Table("New").Rows() != 1 {
		t.Error("inserted relation New missing")
	}
	if ndb.Table("R") != nil {
		t.Error("emptied relation R should be dropped (absent = empty)")
	}
	rels := ndb.Relations()
	if len(rels) != 1 || rels[0] != "New" {
		t.Errorf("Relations() = %v", rels)
	}
}

func TestApplyArityErrors(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "a", "b")
	sdb := compileT(t, db)
	if _, err := sdb.Apply(NewDelta().Add("R", "only-one")); err == nil {
		t.Error("arity-mismatched insert should error")
	}
	if _, err := sdb.Apply(NewDelta().Remove("R", "only-one")); err == nil {
		t.Error("arity-mismatched delete should error")
	}
	// Mixed arities within the inserts of a brand-new relation.
	if _, err := sdb.Apply(NewDelta().Add("T", "x").Add("T", "x", "y")); err == nil {
		t.Error("mixed-arity inserts into a new relation should error")
	}
}

func TestApplyDuplicateInsertsAndDeletes(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "a", "b")
	sdb := compileT(t, db)
	delta := NewDelta().
		Add("R", "c", "d").Add("R", "c", "d"). // duplicate insert collapses
		Remove("R", "a", "b").Remove("R", "a", "b")
	ndb, err := sdb.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsOf(ndb, "R")
	if len(got) != 1 || got["c|d|"] != 1 {
		t.Fatalf("R = %v, want exactly one c|d|", got)
	}
}

func TestDeltaHelpers(t *testing.T) {
	var nilDelta *Delta
	if !nilDelta.Empty() || nilDelta.Size() != 0 || nilDelta.Relations() != nil {
		t.Error("nil delta should be empty")
	}
	// Apply treats a nil delta as empty: unchanged snapshot, no panic.
	db := cq.Database{}
	db.Add("R", "a")
	sdb := compileT(t, db)
	ndb, err := sdb.Apply(nilDelta)
	if err != nil {
		t.Fatal(err)
	}
	if ndb.Table("R") != sdb.Table("R") {
		t.Error("nil delta should share all tables")
	}
	d := NewDelta()
	if !d.Empty() {
		t.Error("fresh delta should be empty")
	}
	d.Add("B", "1").Remove("A", "2")
	if d.Empty() || d.Size() != 2 {
		t.Errorf("Size = %d, want 2", d.Size())
	}
	rels := d.Relations()
	if len(rels) != 2 || rels[0] != "A" || rels[1] != "B" {
		t.Errorf("Relations() = %v, want [A B]", rels)
	}
	// Zero-valued Delta: Add/Remove allocate the maps.
	var zero Delta
	zero.Add("R", "x")
	zero.Remove("R", "y")
	if zero.Size() != 2 {
		t.Error("zero-value Delta should accept Add/Remove")
	}
}

func TestApplyNullaryRelation(t *testing.T) {
	db := cq.Database{}
	db.Add("P") // nullary fact
	db.Add("R", "a")
	sdb := compileT(t, db)
	if sdb.Table("P") == nil || sdb.Table("P").Rows() != 1 {
		t.Fatal("nullary table missing")
	}
	// Delete the nullary fact.
	ndb, err := sdb.Apply(NewDelta().Remove("P"))
	if err != nil {
		t.Fatal(err)
	}
	if ndb.Table("P") != nil {
		t.Error("deleted nullary fact should drop the table")
	}
	// Re-insert it.
	ndb2, err := ndb.Apply(NewDelta().Add("P"))
	if err != nil {
		t.Fatal(err)
	}
	if ndb2.Table("P") == nil || ndb2.Table("P").Rows() != 1 {
		t.Error("re-inserted nullary fact missing")
	}
}

func TestDictConcurrentReadersDuringApply(t *testing.T) {
	db := cq.Database{}
	for i := 0; i < 64; i++ {
		db.Add("R", "a", "b")
	}
	sdb := compileT(t, db)
	done := make(chan struct{})
	go func() {
		defer close(done)
		cur := sdb
		for i := 0; i < 200; i++ {
			d := NewDelta().Add("R", "x", string(rune('a'+i%26))+"fresh")
			next, err := cur.Apply(d)
			if err != nil {
				t.Error(err)
				return
			}
			cur = next
		}
	}()
	// Concurrent readers over the original snapshot while Apply interns.
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 500; j++ {
				if _, ok := sdb.Dict.Lookup("a"); !ok {
					t.Error("interned constant vanished")
					return
				}
				_ = sdb.Dict.Name(0)
				_ = sdb.Dict.Len()
			}
		}()
	}
	<-done
}

// TestDeltaMergeSemantics pins the composition law of merging deltas in a
// Coalescer on hand-picked cases: later deletes cancel earlier inserts,
// re-inserts survive (deletes-first), and both halves stay
// set-deduplicated.
func TestDeltaMergeSemantics(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "a")
	db.Add("R", "b")
	sdb := compileT(t, db)

	cases := []struct {
		name   string
		deltas []*Delta
	}{
		{"insert-then-delete", []*Delta{NewDelta().Add("R", "x"), NewDelta().Remove("R", "x")}},
		{"delete-then-reinsert", []*Delta{NewDelta().Remove("R", "a"), NewDelta().Add("R", "a")}},
		{"delete-insert-same-delta-then-delete", []*Delta{
			NewDelta().Remove("R", "a").Add("R", "a"), NewDelta().Remove("R", "a")}},
		{"duplicates-dedup", []*Delta{
			NewDelta().Add("R", "x").Add("R", "x").Remove("R", "b"),
			NewDelta().Remove("R", "b").Add("R", "x")}},
		{"new-relation", []*Delta{NewDelta().Add("Q", "1", "2"), NewDelta().Remove("Q", "1", "2").Add("Q", "3", "4")}},
	}
	for _, tc := range cases {
		seq := sdb
		merged := NewCoalescer()
		for _, d := range tc.deltas {
			next, err := seq.Apply(d)
			if err != nil {
				t.Fatalf("%s: sequential Apply: %v", tc.name, err)
			}
			seq = next
			merged.Merge(d)
		}
		got, err := sdb.Apply(merged.Take())
		if err != nil {
			t.Fatalf("%s: Apply(merged): %v", tc.name, err)
		}
		for _, rel := range []string{"R", "Q"} {
			if g, w := rowsOf(got, rel), rowsOf(seq, rel); len(g) != len(w) {
				t.Fatalf("%s: relation %s merged %v, sequential %v", tc.name, rel, g, w)
			} else {
				for k := range w {
					if g[k] != w[k] {
						t.Fatalf("%s: relation %s merged %v, sequential %v", tc.name, rel, g, w)
					}
				}
			}
		}
	}
	// Dedup bound: merging the same single-tuple delta many times stays O(1).
	acc := NewCoalescer()
	for i := 0; i < 100; i++ {
		acc.Merge(NewDelta().Add("R", "x").Remove("R", "y"))
	}
	if n, listed := acc.Size(), acc.Take().Size(); n != 2 || listed != 2 {
		t.Fatalf("coalesced size = %d listing %d, want 2 (set semantics must bound the merged delta)", n, listed)
	}
}

// TestDiffTables pins the table diff on a direct case — it reports exactly
// the rows that left and the rows that came, whichever forms the two tables
// are in — and that it stays exact across several Applies and against a nil
// (empty) side.
func TestDiffTables(t *testing.T) {
	db := cq.Database{}
	for i := 0; i < 8; i++ {
		db.Add("R", fmt.Sprint("a", i), fmt.Sprint("b", i))
	}
	db.Add("S", "x")
	sdb := compileT(t, db)
	diff := func(old, cur *Table, dict *Dict) (gone, came []string) {
		name := func(row []Value) string { return dict.Name(row[0]) + "," + dict.Name(row[1]) }
		DiffTables(old, cur, func(row []Value) { gone = append(gone, name(row)) }, func(row []Value) { came = append(came, name(row)) })
		sort.Strings(gone)
		sort.Strings(came)
		return gone, came
	}
	ndb, err := sdb.Apply(NewDelta().Add("R", "c", "d").Remove("R", "a0", "b0"))
	if err != nil {
		t.Fatal(err)
	}
	if ndb.Table("R").Flat() || !sdb.Table("R").Flat() {
		t.Fatalf("a 2-tuple delta against 8 rows should leave the parent flat and make the child persistent")
	}
	if ndb.Table("S") != sdb.Table("S") {
		t.Error("untouched relation S got a new table")
	}
	gone, came := diff(sdb.Table("R"), ndb.Table("R"), ndb.Dict)
	if !slices.Equal(gone, []string{"a0,b0"}) || !slices.Equal(came, []string{"c,d"}) {
		t.Errorf("one step: gone %v came %v", gone, came)
	}
	// Three more steps, one of them undoing part of the first: the diff from
	// the original table is the net change.
	cur := ndb
	for _, step := range []*Delta{NewDelta().Add("R", "a0", "b0"), NewDelta().Remove("R", "a1", "b1"), NewDelta().Add("R", "e", "f")} {
		if cur, err = cur.Apply(step); err != nil {
			t.Fatal(err)
		}
	}
	gone, came = diff(sdb.Table("R"), cur.Table("R"), cur.Dict)
	if !slices.Equal(gone, []string{"a1,b1"}) || !slices.Equal(came, []string{"c,d", "e,f"}) {
		t.Errorf("four steps: gone %v came %v", gone, came)
	}
	// A delta as large as the relation rewrites it flat; the diff is still
	// exact, and so is the diff against an absent relation.
	all := NewDelta()
	for i := 0; i < 9; i++ {
		all.Add("R", fmt.Sprint("z", i), "w")
	}
	bulk, err := cur.Apply(all)
	if err != nil {
		t.Fatal(err)
	}
	if !bulk.Table("R").Flat() {
		t.Error("a delta listing as many tuples as the relation holds should rewrite it flat")
	}
	if gone, came = diff(cur.Table("R"), bulk.Table("R"), bulk.Dict); len(gone) != 0 || len(came) != 9 {
		t.Errorf("bulk step: gone %v came %v", gone, came)
	}
	if gone, came = diff(nil, sdb.Table("R"), sdb.Dict); len(gone) != 0 || len(came) != 8 {
		t.Errorf("from empty: gone %v came %v", gone, came)
	}
	if gone, came = diff(sdb.Table("R"), nil, sdb.Dict); len(gone) != 8 || len(came) != 0 {
		t.Errorf("to empty: gone %v came %v", gone, came)
	}
}
