package storage

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"d2cq/internal/cq"
)

func TestDictInternLookup(t *testing.T) {
	d := NewDict()
	a := mustIntern(t, d, "a")
	b := mustIntern(t, d, "b")
	if a == b {
		t.Fatal("distinct constants share a value")
	}
	if got := mustIntern(t, d, "a"); got != a {
		t.Errorf("re-intern changed value: %d vs %d", got, a)
	}
	if v, ok := d.Lookup("b"); !ok || v != b {
		t.Errorf("Lookup(b) = %d,%v", v, ok)
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Error("Lookup of absent constant succeeded")
	}
	if d.Name(a) != "a" || d.Name(b) != "b" {
		t.Error("Name round-trip broken")
	}
	f, err := d.Intern("star")
	if err != nil || d.Name(f) != "star" || f == a || f == b || d.Len() != 3 {
		t.Errorf("new constant broken: name=%s len=%d err=%v", d.Name(f), d.Len(), err)
	}
}

func TestTupleMapBasic(t *testing.T) {
	m := NewTupleMap(2, 4)
	if slot, isNew := m.Insert([]Value{1, 2}); !isNew || slot != 0 {
		t.Fatalf("first insert: slot=%d new=%v", slot, isNew)
	}
	if _, isNew := m.Insert([]Value{1, 2}); isNew {
		t.Fatal("duplicate insert claimed new")
	}
	if slot := m.Find([]Value{2, 1}); slot != -1 {
		t.Fatalf("Find of absent tuple = %d", slot)
	}
	m.Add([]Value{3, 4}, 10)
	m.Add([]Value{3, 4}, 5)
	if got := m.Get([]Value{3, 4}); got != 15 {
		t.Errorf("Get = %d, want 15", got)
	}
	if got := m.Get([]Value{9, 9}); got != 0 {
		t.Errorf("Get of absent tuple = %d, want 0", got)
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
	if k := m.Key(1); k[0] != 3 || k[1] != 4 {
		t.Errorf("Key(1) = %v", k)
	}
	if keys := m.Keys(); !slices.Equal(keys, []Value{1, 2, 3, 4}) {
		t.Errorf("Keys() = %v, want the tuples flat in slot order", keys)
	}
}

// TestTupleMapCollisions forces every tuple into one hash bucket: distinct
// tuples must still get distinct slots and exact payloads.
func TestTupleMapCollisions(t *testing.T) {
	m := newTupleMapWithHash(2, func([]Value) uint64 { return 42 })
	for i := Value(0); i < 50; i++ {
		m.Add([]Value{i, i + 1}, int64(i))
	}
	if m.Len() != 50 {
		t.Fatalf("Len = %d, want 50 despite total collision", m.Len())
	}
	for i := Value(0); i < 50; i++ {
		if got := m.Get([]Value{i, i + 1}); got != int64(i) {
			t.Errorf("Get(%d) = %d, want %d", i, got, i)
		}
		if got := m.Get([]Value{i + 1, i}); got != 0 {
			t.Errorf("swapped tuple leaked payload %d", got)
		}
	}
}

func TestCompileAndTable(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "a", "b")
	db.Add("R", "a", "c")
	db.Add("R", "a", "b") // duplicate tuples are kept: tables mirror the input
	db.Add("S", "c")
	sdb, err := Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	r := sdb.Table("R")
	if r == nil || r.Rows() != 3 || r.Arity != 2 {
		t.Fatalf("table R = %+v", r)
	}
	if d, s := r.Distinct(), sdb.Table("S"); len(d) != 2*r.Arity || len(s.Distinct()) != len(s.Data) {
		t.Errorf("Distinct: R keeps %d of its 6 values (repeats a tuple), S %d of its %d", len(d), len(s.Distinct()), len(s.Data))
	}
	if sdb.Table("missing") != nil {
		t.Error("absent relation should be nil")
	}
	dbst := sdb.Stats()
	if dbst.Relations != 2 || dbst.Tuples != 4 || dbst.Constants != 3 {
		t.Errorf("db stats = %+v", dbst)
	}
	if rels := sdb.Relations(); len(rels) != 2 || rels[0] != "R" || rels[1] != "S" {
		t.Errorf("Relations() = %v", rels)
	}
	// The interned rows must round-trip through the dictionary.
	row := r.Data[r.Arity : 2*r.Arity]
	if sdb.Dict.Name(row[0]) != "a" || sdb.Dict.Name(row[1]) != "c" {
		t.Errorf("row 1 = %s,%s", sdb.Dict.Name(row[0]), sdb.Dict.Name(row[1]))
	}
}

// TestTableDistinct: a flat table's Distinct rows are its rows' first
// occurrences in order, whatever the arity and wherever a repeat sits, and a
// table that repeats no row keeps all of them: its own Data. A delta leaves a
// persistent table, a set by construction.
func TestTableDistinct(t *testing.T) {
	for _, c := range []struct {
		name string
		rows [][]string
		want bool
	}{
		{"distinct", [][]string{{"a", "b"}, {"b", "a"}, {"a", "a"}}, true},
		{"repeat first and last", [][]string{{"a", "b"}, {"b", "a"}, {"a", "b"}}, false},
		{"repeat adjacent", [][]string{{"b", "a"}, {"a", "b"}, {"a", "b"}}, false},
		{"unary repeat", [][]string{{"a"}, {"b"}, {"a"}}, false},
		{"nullary once", [][]string{{}}, true},
		{"nullary twice", [][]string{{}, {}}, false},
	} {
		db := cq.Database{"R": c.rows}
		sdb, err := Compile(db)
		if err != nil {
			t.Fatal(err)
		}
		tab := sdb.Table("R")
		if got := len(tab.Distinct()) == len(tab.Data); got != c.want {
			t.Errorf("%s: Distinct keeps every row = %v, want %v", c.name, got, c.want)
		}
		var want, got []string
		seen := map[string]bool{}
		for _, row := range c.rows {
			if k := strings.Join(row, ","); !seen[k] {
				seen[k] = true
				want = append(want, k)
			}
		}
		d := tab.Distinct()
		if tab.Arity == 0 {
			got = make([]string, len(d))
		}
		for i := 0; tab.Arity > 0 && i < len(d); i += tab.Arity {
			var names []string
			for _, v := range d[i : i+tab.Arity] {
				names = append(names, sdb.Dict.Name(v))
			}
			got = append(got, strings.Join(names, ","))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: Distinct = %q, want %q", c.name, got, want)
		}
		if c.want && len(d) > 0 && &d[0] != &tab.Data[0] {
			t.Errorf("%s: a set's Distinct is a copy of its Data", c.name)
		}
	}
	rows := make([][]string, 0, 2000)
	for i := 0; i < 2000; i++ {
		rows = append(rows, []string{fmt.Sprint(i % 97), fmt.Sprint(i)})
	}
	sdb, err := Compile(cq.Database{"R": rows})
	if err != nil {
		t.Fatal(err)
	}
	if tab := sdb.Table("R"); len(tab.Distinct()) != len(tab.Data) {
		t.Errorf("2000 distinct rows: Distinct keeps %d of %d values", len(tab.Distinct()), len(tab.Data))
	}
	next, err := sdb.Apply(NewDelta().Add("R", "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if tab := next.Table("R"); tab.Flat() || tab.Rows() != 2001 {
		t.Errorf("after a delta: flat %v, %d rows; want a persistent set of 2001", tab.Flat(), tab.Rows())
	}
}

func TestCompileRaggedArity(t *testing.T) {
	db := cq.Database{}
	db.Add("R", "a", "b")
	db.Add("R", "a")
	if _, err := Compile(db); err == nil {
		t.Fatal("ragged relation must fail to compile")
	}
}

// TestTableIndexConcurrent hammers a table's lazily built state — the row
// map (RowMap) a flat table converts to once and its cached Distinct rows —
// and its plain reads (Rows, Scan) from goroutines released together, on a flat
// set, a flat table repeating rows and a persistent table, while some of
// them derive successors (Apply reads a flat parent's row map). Run with
// -race.
func TestTableIndexConcurrent(t *testing.T) {
	db := cq.Database{}
	for i := 0; i < 2000; i++ {
		db.Add("R", fmt.Sprint(i%7), fmt.Sprint(i%5), fmt.Sprint(i))
		db.Add("D", fmt.Sprint(i%3), fmt.Sprint(i%2)) // repeats rows
		db.Add("P", fmt.Sprint(i))
	}
	sdb, err := Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	next, err := sdb.Apply(NewDelta().Remove("P", "0"))
	if err != nil {
		t.Fatal(err)
	}
	tables := []struct {
		tab            *Table
		rows, distinct int
	}{
		{sdb.Table("R"), 2000, 2000},
		{sdb.Table("D"), 2000, 6},
		{next.Table("P"), 1999, 1999},
	}
	if tables[2].tab.Flat() {
		t.Fatal("a one-row delta left P flat")
	}
	const goroutines = 8
	maps := make([][goroutines]*PMap[struct{}], len(tables))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for j, c := range tables {
				maps[j][g] = c.tab.RowMap()
			}
			for i := 0; i < 10; i++ {
				for j, c := range tables {
					if c.tab.Flat() && len(c.tab.Distinct()) != c.distinct*c.tab.Arity {
						t.Errorf("table %d: Distinct holds %d values, want %d rows", j, len(c.tab.Distinct()), c.distinct)
					}
					n := 0
					c.tab.Scan(func([]Value) { n++ })
					if n != c.rows || c.tab.Rows() != c.rows {
						t.Errorf("table %d: Scan saw %d rows, Rows says %d, want %d", j, n, c.tab.Rows(), c.rows)
					}
					if m := c.tab.RowMap(); m != maps[j][g] {
						t.Errorf("table %d: RowMap changed between calls", j)
					}
				}
				if g%2 == 0 {
					if _, err := sdb.Apply(NewDelta().Remove("R", "1", "1", "1")); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	// Each table has one row map, shared by every caller, keyed by its
	// distinct rows.
	for j, ms := range maps {
		for _, m := range ms {
			if m != ms[0] {
				t.Fatalf("table %d: RowMap returned distinct maps", j)
			}
		}
		if got, want := ms[0].Len(), tables[j].distinct; got != want {
			t.Errorf("table %d: row map holds %d keys, want %d", j, got, want)
		}
	}
}
