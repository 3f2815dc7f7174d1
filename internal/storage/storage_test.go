package storage

import (
	"fmt"
	"slices"
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

func TestIndexSingleColumn(t *testing.T) {
	// Rows: (1,10) (2,20) (1,30)
	data := []Value{1, 10, 2, 20, 1, 30}
	ix := BuildIndex(data, 2, []int{0})
	rows := ix.Lookup([]Value{1})
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Errorf("Lookup(1) = %v", rows)
	}
	if got := ix.Lookup([]Value{3}); len(got) != 0 {
		t.Errorf("Lookup(3) = %v", got)
	}
	if got := ix.Lookup([]Value{2}); len(got) != 1 || got[0] != 1 {
		t.Errorf("Lookup(2) = %v", got)
	}
}

func TestIndexMultiColumn(t *testing.T) {
	// Rows: (1,10,7) (2,20,7) (1,10,9)
	data := []Value{1, 10, 7, 2, 20, 7, 1, 10, 9}
	ix := BuildIndex(data, 3, []int{0, 1})
	rows := ix.Lookup([]Value{1, 10})
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Errorf("Lookup(1,10) = %v", rows)
	}
	if got := ix.Lookup([]Value{2, 20}); len(got) != 1 || got[0] != 1 {
		t.Errorf("Lookup(2,20) = %v", got)
	}
	if got := ix.Lookup([]Value{2, 10}); len(got) != 0 {
		t.Errorf("Lookup(2,10) = %v", got)
	}
}

// TestIndexCollisionVerification forces all composite keys into one bucket:
// Lookup must verify against the stored tuples and return only true matches.
func TestIndexCollisionVerification(t *testing.T) {
	// Rows: (1,10) (2,20) (1,10) (3,30)
	data := []Value{1, 10, 2, 20, 1, 10, 3, 30}
	ix := buildIndexWithHash(data, 2, []int{0, 1}, func([]Value) uint64 { return 7 })
	rows := ix.Lookup([]Value{1, 10})
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Fatalf("collision Lookup(1,10) = %v, want [0 2]", rows)
	}
	if got := ix.Lookup([]Value{9, 9}); len(got) != 0 {
		t.Errorf("collision Lookup(9,9) = %v, want empty", got)
	}
	if got := ix.Lookup([]Value{3, 30}); len(got) != 1 || got[0] != 3 {
		t.Errorf("collision Lookup(3,30) = %v, want [3]", got)
	}
	if got := ix.Lookup([]Value{10, 1}); len(got) != 0 {
		t.Errorf("collision Lookup(10,1) = %v, want empty", got)
	}
	// Mid-bucket mismatch: first candidate matches, a later one does not.
	if got := ix.Lookup([]Value{2, 20}); len(got) != 1 || got[0] != 1 {
		t.Errorf("collision Lookup(2,20) = %v, want [1]", got)
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
	if r.IsSet() || !sdb.Table("S").IsSet() {
		t.Errorf("IsSet: R %v (repeats a tuple), S %v", r.IsSet(), sdb.Table("S").IsSet())
	}
	if sdb.Table("missing") != nil {
		t.Error("absent relation should be nil")
	}
	st := r.Stats()
	if st.Rows != 3 || st.Distinct[0] != 1 || st.Distinct[1] != 2 {
		t.Errorf("stats = %+v", st)
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

// TestTableIsSet: a flat table is a set iff it repeats no row, whatever the
// arity and wherever the repeat sits; a persistent table always is one.
func TestTableIsSet(t *testing.T) {
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
		if got := tab.IsSet(); got != c.want || tab.IsSet() != got {
			t.Errorf("%s: IsSet = %v, want %v", c.name, got, c.want)
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
	if !sdb.Table("R").IsSet() {
		t.Error("2000 distinct rows: IsSet = false")
	}
	next, err := sdb.Apply(NewDelta().Add("R", "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if tab := next.Table("R"); tab.Flat() || !tab.IsSet() {
		t.Errorf("after a small delta: flat %v, IsSet %v; want a persistent set", tab.Flat(), tab.IsSet())
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

// TestTableIndexCacheBounded asks for more column sets than the cache keeps:
// every lookup must stay correct past the cap.
func TestTableIndexCacheBounded(t *testing.T) {
	db := cq.Database{}
	arity := maxCachedIndexes + 4
	row := make([]string, arity)
	for i := range row {
		row[i] = fmt.Sprintf("v%d", i)
	}
	db.Add("W", row...)
	sdb, err := Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	tab := sdb.Table("W")
	for c := 0; c < arity; c++ {
		v, _ := sdb.Dict.Lookup(fmt.Sprintf("v%d", c))
		if rows := tab.Index(c).Lookup([]Value{v}); len(rows) != 1 || rows[0] != 0 {
			t.Errorf("col %d: Lookup = %v", c, rows)
		}
	}
	tab.mu.Lock()
	cached := len(tab.indexes)
	tab.mu.Unlock()
	if cached > maxCachedIndexes {
		t.Errorf("cache holds %d indexes, cap is %d", cached, maxCachedIndexes)
	}
}

// TestTableIndexConcurrent hammers the lazy index cache from many
// goroutines; run with -race.
func TestTableIndexConcurrent(t *testing.T) {
	db := cq.Database{}
	for i := 0; i < 64; i++ {
		db.Add("R", string(rune('a'+i%7)), string(rune('a'+i%5)), string(rune('a'+i%3)))
	}
	sdb, err := Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	tab := sdb.Table("R")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ix := tab.Index(g % 3)
				if ix == nil {
					t.Error("nil index")
					return
				}
				tab.Index(0, 1).Lookup([]Value{1, 2})
				tab.Stats()
			}
		}(g)
	}
	wg.Wait()
	// The cache must hand out one index per column set.
	if a, b := tab.Index(1), tab.Index(1); a != b {
		t.Error("index cache returned distinct instances")
	}
}
