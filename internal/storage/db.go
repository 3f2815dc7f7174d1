package storage

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"d2cq/internal/cq"
)

// Table is one compiled relation of interned tuples, in one of two forms.
// The flat form is what Compile, DecodeDB and a delta rewriting most of a
// relation produce: row i occupies Data[i*Arity:(i+1)*Arity], the cheapest
// thing to build and scan. A flat table keeps its input as given, so it may
// repeat a tuple (Compile does not deduplicate); IsSet tells. The persistent
// form is what a small delta produces: the rows are the keys of a PMap (Data
// is nil), so it is a set, and the successor shares every untouched trie node
// with its parent and costs one root-to-leaf path per tuple. A flat table
// becomes persistent at its first small delta (RowMap bulk-builds the map
// once and caches it on the flat table); DB.Apply states the rule. The tuple data
// is immutable either way; the lazily built indexes, statistics, row map and
// set check are guarded by a mutex, so a Table is safe for concurrent use.
type Table struct {
	Name  string
	Arity int
	Data  []Value

	rows *PMap[struct{}] // the persistent form's rows; nil for a flat table

	mu      sync.Mutex
	asMap   *PMap[struct{}] // a flat table's rows as a map, built on first RowMap
	indexes map[string]*Index
	stats   *TableStats
	set     int8 // a flat table's IsSet: 0 not yet checked, 1 a set, -1 not
}

// Flat reports whether the table is in the flat form.
func (t *Table) Flat() bool { return t.rows == nil }

// Rows returns the number of tuples.
func (t *Table) Rows() int {
	switch {
	case t.rows != nil:
		return t.rows.Len()
	case t.Arity == 0:
		return len(t.Data) // nullary tables store one sentinel per row
	}
	return len(t.Data) / t.Arity
}

// IsSet reports whether the table repeats no row. A persistent table always
// is a set; a flat one is checked once, by hashing its rows, and the answer
// is cached on the table.
func (t *Table) IsSet() bool {
	if t.rows != nil {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.set == 0 {
		t.set = -1
		if distinctRows(t.Data, t.Arity, t.Rows()) {
			t.set = 1
		}
	}
	return t.set > 0
}

// distinctRows reports whether the n flat rows of data (arity a) are pairwise
// distinct. Each row is hashed once into an open-addressing table of row
// numbers and compared in place, so nothing is copied.
func distinctRows(data []Value, a, n int) bool {
	if a == 0 {
		return n <= 1
	}
	size := tableSize(n)
	table, mask := make([]int32, size), uint64(size-1)
	for i := 0; i < n; i++ {
		row := data[i*a : (i+1)*a]
		j := mapHash(row) & mask
		for ; table[j] != 0; j = (j + 1) & mask {
			if o := int(table[j] - 1); slices.Equal(data[o*a:(o+1)*a], row) {
				return false
			}
		}
		table[j] = int32(i + 1)
	}
	return true
}

// Scan calls f for every row — in storage order for a flat table, in the
// map's (content-determined) order for a persistent one. The row slice is a
// view; do not mutate or retain it across calls.
func (t *Table) Scan(f func(row []Value)) {
	if t.rows != nil {
		t.rows.Range(func(row []Value, _ struct{}) bool {
			f(row)
			return true
		})
		return
	}
	a, n := t.Arity, t.Rows()
	for i := 0; i < n; i++ {
		f(t.Data[i*a : (i+1)*a])
	}
}

// RowMap returns the table's rows as a persistent set: the table's own map
// in the persistent form; for a flat table, a conversion BuildPMap makes once,
// in one pass over the rows and a few allocations, and caches on the table.
// Successors derived from it by Apply share its structure, so PMap.Diff
// between a table's map and a descendant's costs O(change).
func (t *Table) RowMap() *PMap[struct{}] {
	m, _ := t.rowMap()
	return m
}

// rowMap is RowMap, also reporting whether this call paid for the conversion.
func (t *Table) rowMap() (m *PMap[struct{}], built bool) {
	if t.rows != nil {
		return t.rows, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.asMap == nil {
		// A nullary table's Data is one sentinel per row; its keys are empty.
		t.asMap, built = BuildPMap(t.Arity, t.Data, t.Rows(), func([]int32) struct{} { return struct{}{} }), true
	}
	return t.asMap, built
}

// flatData returns the rows laid out flat: Data itself for a flat table, a
// fresh listing for a persistent one.
func (t *Table) flatData() []Value {
	if t.rows == nil {
		return t.Data
	}
	data := make([]Value, 0, t.Rows()*t.Arity)
	t.Scan(func(row []Value) { data = append(data, row...) })
	return data
}

// colsKey renders a column set as a cache key.
func colsKey(cols []int) string {
	b := make([]byte, 0, 3*len(cols))
	for _, c := range cols {
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ',')
	}
	return string(b)
}

// maxCachedIndexes bounds the per-table index cache: a long-lived shared
// table serving ad-hoc traffic must not accumulate one O(rows) index per
// column set ever queried. Past the cap, indexes are built per call and not
// retained.
const maxCachedIndexes = 16

// Index returns the hash index of the table on the given column positions,
// building it on first use and caching up to maxCachedIndexes of them.
func (t *Table) Index(cols ...int) *Index {
	key := colsKey(cols)
	t.mu.Lock()
	if ix, ok := t.indexes[key]; ok {
		t.mu.Unlock()
		return ix
	}
	t.mu.Unlock()
	ix := BuildIndex(t.flatData(), t.Arity, cols)
	t.mu.Lock()
	defer t.mu.Unlock()
	if cached, ok := t.indexes[key]; ok {
		return cached // another goroutine built it meanwhile
	}
	if t.indexes == nil {
		t.indexes = map[string]*Index{}
	}
	if len(t.indexes) < maxCachedIndexes {
		t.indexes[key] = ix
	}
	return ix
}

// TableStats carries the basic statistics join ordering uses: cardinality
// and the number of distinct values per column.
type TableStats struct {
	Rows     int
	Distinct []int
}

// Stats returns the table statistics, computing and caching them on first
// use.
func (t *Table) Stats() TableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats == nil {
		st := &TableStats{Rows: t.Rows(), Distinct: make([]int, t.Arity)}
		buf := make([]Value, 1)
		for c := 0; c < t.Arity; c++ {
			m := NewTupleMap(1, st.Rows)
			col := c
			t.Scan(func(row []Value) {
				buf[0] = row[col]
				m.Insert(buf)
			})
			st.Distinct[c] = m.Len()
		}
		t.stats = st
	}
	return *t.stats
}

// DB is a compiled database: every constant interned through one shared
// dictionary, every relation a Table. A DB is an immutable snapshot: Apply
// returns a successor sharing the dictionary, every untouched table and all
// of the relation directory but one root-to-leaf path per touched relation,
// so one DB serves any number of concurrent bound evaluations while newer
// snapshots are derived from it.
type DB struct {
	Dict *Dict

	// The relation directory: names are numbered by a dictionary the whole
	// snapshot lineage shares (append-only, like Dict), and the tables sit in
	// a persistent map under their relation's number. A name numbered by a
	// later snapshot is simply absent from this one's map.
	rels   *Dict
	tables *PMap[*Table]

	applyRows uint64 // see ApplyRows
}

// newDB returns an empty database over the given dictionary.
func newDB(dict *Dict) *DB {
	return &DB{Dict: dict, rels: NewDict(), tables: NewPMap[*Table](1)}
}

// directory returns the relation directory holding tables[i] under relation
// number ids[i] (a number may repeat, always with its one table).
func directory(ids []Value, tables []*Table) *PMap[*Table] {
	return BuildPMap(1, ids, len(ids), func(at []int32) *Table { return tables[at[0]] })
}

// put installs t under relation number id in dir, an open edit of a
// relation directory, or removes the relation when t is nil.
func put(dir *PMap[*Table], id Value, t *Table) {
	key := [1]Value{id}
	if t == nil {
		dir.Delete(key[:])
	} else {
		dir.Set(key[:], t)
	}
}

// Compile interns an entire cq.Database once. It fails if a relation holds
// tuples of differing arities — a compiled table needs one flat layout, and
// such a relation could never validate against any query atom anyway — and
// with ErrDictFull if its constants overflow the dictionary.
func Compile(db cq.Database) (*DB, error) {
	out := newDB(NewDict())
	// Deterministic interning order: sorted relation names.
	names := make([]string, 0, len(db))
	for name := range db {
		names = append(names, name)
	}
	sort.Strings(names)
	ids, tables := make([]Value, 0, len(names)), make([]*Table, 0, len(names))
	for _, name := range names {
		tuples := db[name]
		if len(tuples) == 0 {
			continue
		}
		t := &Table{Name: name, Arity: len(tuples[0])}
		for _, tuple := range tuples {
			if len(tuple) != t.Arity {
				return nil, fmt.Errorf("storage: relation %s mixes arities %d and %d", name, t.Arity, len(tuple))
			}
		}
		// Bulk-intern under one lock per relation, the table sized once for
		// its cells: the dictionary has not escaped yet, so per-constant
		// locking would buy nothing.
		data, err := out.Dict.internRows(tuples)
		if err != nil {
			return nil, err
		}
		t.Data = data[0]
		id, err := out.rels.Intern(name)
		if err != nil {
			return nil, err
		}
		ids, tables = append(ids, id), append(tables, t)
	}
	out.tables = directory(ids, tables)
	return out, nil
}

// Table returns the compiled relation of the given name, or nil when the
// relation is absent (equivalently: empty).
func (db *DB) Table(name string) *Table {
	id, ok := db.rels.Lookup(name)
	if !ok {
		return nil
	}
	key := [1]Value{id}
	t, _ := db.tables.Get(key[:])
	return t
}

// Restrict returns a snapshot holding only the named relations of db,
// sharing their tables, the dictionary and the relation numbering: whoever
// holds it keeps those tables alive and nothing else of db.
func (db *DB) Restrict(relations []string) *DB {
	ids, tables := make([]Value, 0, len(relations)), make([]*Table, 0, len(relations))
	for _, name := range relations {
		if t := db.Table(name); t != nil {
			id, _ := db.rels.Lookup(name)
			ids, tables = append(ids, id), append(tables, t)
		}
	}
	return &DB{Dict: db.Dict, rels: db.rels, tables: directory(ids, tables)}
}

// ApplyRows returns the number of rows the Apply that produced this snapshot
// hashed, probed or copied — interned delta tuples, trie entries moved by
// path copies (the relation directory's included), and every row of a table
// it converted or rewrote whole. Zero for a snapshot from Compile or
// DecodeDB. For a fixed small delta it must not grow with the relation or
// with the number of relations (a test holds it to that).
func (db *DB) ApplyRows() uint64 { return db.applyRows }

// Relations returns the compiled relation names, sorted.
func (db *DB) Relations() []string {
	names := make([]string, 0, db.tables.Len())
	db.tables.Range(func(_ []Value, t *Table) bool {
		names = append(names, t.Name)
		return true
	})
	sort.Strings(names)
	return names
}

// DBStats summarises a compiled database.
type DBStats struct {
	Relations int
	Tuples    int
	Constants int
}

// Stats returns the compiled database summary.
func (db *DB) Stats() DBStats {
	st := DBStats{Relations: db.tables.Len(), Constants: db.Dict.Len()}
	db.tables.Range(func(_ []Value, t *Table) bool {
		st.Tuples += t.Rows()
		return true
	})
	return st
}
