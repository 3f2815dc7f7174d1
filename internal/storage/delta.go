package storage

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"d2cq/internal/cq"
)

// Delta is a batch of tuple insertions and deletions against a compiled
// database, expressed in the same constant-string form as cq.Database. The
// semantics are set-based and deletions apply first: for every relation R,
//
//	new R = (old R ∖ Delete[R]) ∪ Insert[R]
//
// so deleting an absent tuple and inserting a present one are both no-ops,
// and a tuple listed in both Delete and Insert ends up present. A Delta is a
// plain value — build one with NewDelta/Add/Remove, or fill the maps
// directly.
type Delta struct {
	Insert map[string][][]string
	Delete map[string][][]string
}

// NewDelta returns an empty delta.
func NewDelta() *Delta {
	return &Delta{Insert: map[string][][]string{}, Delete: map[string][][]string{}}
}

// Add records a tuple insertion into the named relation.
func (d *Delta) Add(rel string, vals ...string) *Delta {
	if d.Insert == nil {
		d.Insert = map[string][][]string{}
	}
	d.Insert[rel] = append(d.Insert[rel], vals)
	return d
}

// Remove records a tuple deletion from the named relation.
func (d *Delta) Remove(rel string, vals ...string) *Delta {
	if d.Delete == nil {
		d.Delete = map[string][][]string{}
	}
	d.Delete[rel] = append(d.Delete[rel], vals)
	return d
}

// tupleMergeKey renders a constant tuple as a set key (constants are free
// text, so a length-prefixed join is unambiguous).
func tupleMergeKey(t []string) string {
	var b strings.Builder
	for _, c := range t {
		b.WriteString(strconv.Itoa(len(c)))
		b.WriteByte(':')
		b.WriteString(c)
	}
	return b.String()
}

// Empty reports whether the delta carries no insertions and no deletions.
func (d *Delta) Empty() bool {
	if d == nil {
		return true
	}
	for _, ts := range d.Insert {
		if len(ts) > 0 {
			return false
		}
	}
	for _, ts := range d.Delete {
		if len(ts) > 0 {
			return false
		}
	}
	return true
}

// Size returns the number of tuples listed in the delta (insertions plus
// deletions).
func (d *Delta) Size() int {
	if d == nil {
		return 0
	}
	n := 0
	for _, ts := range d.Insert {
		n += len(ts)
	}
	for _, ts := range d.Delete {
		n += len(ts)
	}
	return n
}

// Relations returns the names of the relations the delta touches, sorted.
func (d *Delta) Relations() []string {
	if d == nil {
		return nil
	}
	seen := map[string]bool{}
	for rel := range d.Insert {
		seen[rel] = true
	}
	for rel := range d.Delete {
		seen[rel] = true
	}
	names := make([]string, 0, len(seen))
	for rel := range seen {
		names = append(names, rel)
	}
	sort.Strings(names)
	return names
}

// ApplyToDatabase applies the delta to a plain cq.Database in place, with
// the same semantics as DB.Apply: deletes first (removing every matching
// tuple), then inserts (skipped when the tuple is already present). It is
// the single source of truth for maintaining an uncompiled mirror of a
// snapshot stream — the differential tests and the hyperbench updates
// benchmark both compare incremental maintenance against recompiling such
// a mirror from scratch.
func (d *Delta) ApplyToDatabase(db cq.Database) {
	if d == nil {
		return
	}
	same := slices.Equal[[]string]
	for rel, tuples := range d.Delete {
		kept := db[rel][:0]
		for _, t := range db[rel] {
			hit := false
			for _, del := range tuples {
				if same(t, del) {
					hit = true
					break
				}
			}
			if !hit {
				kept = append(kept, t)
			}
		}
		if len(kept) == 0 {
			delete(db, rel)
		} else {
			db[rel] = kept
		}
	}
	for rel, tuples := range d.Insert {
		for _, ins := range tuples {
			present := false
			for _, t := range db[rel] {
				if same(t, ins) {
					present = true
					break
				}
			}
			if !present {
				db.Add(rel, append([]string(nil), ins...)...)
			}
		}
	}
}

// Apply produces a new database snapshot with the delta applied. The new DB
// shares the dictionary, every untouched Table and the relation directory
// with its parent, so a small delta costs time proportional to the delta —
// not to the touched relations, nor to the number of relations. New
// constants are interned into the shared dictionary, which is
// append-friendly: the parent snapshot is completely unaffected and both
// snapshots stay live and safe for concurrent reads. A touched relation
// whose content does not actually change (all deletes absent, all inserts
// present) keeps its old Table pointer, so downstream pointer-diffing sees a
// precise dirty set; what did change in a relation is read off the two
// tables (DiffTables).
//
// One rule picks a touched relation's form. A delta listing at least as many
// tuples as the relation holds rewrites it flat — that costs no more than a
// constant times the delta, and is what a bulk load into an empty or small
// relation wants. Any smaller delta edits the relation's persistent row map,
// one root-to-leaf path per tuple, converting a flat table first (once: the
// conversion is cached on it, see Table.RowMap).
//
// The constants of the delta are interned all at once, after every relation
// has been validated, and taken back whole on ErrDictFull, so a failed Apply
// leaves the shared dictionary as it found it.
func (db *DB) Apply(delta *Delta) (*DB, error) {
	out := &DB{Dict: db.Dict, rels: db.rels, tables: db.tables}
	if delta.Empty() { // nil-safe: a nil delta is an empty delta
		return out, nil
	}
	rels := delta.Relations()
	olds, arities := make([]*Table, len(rels)), make([]int, len(rels))
	ids, inserts := make([]Value, len(rels)), make([][][]string, len(rels))
	for i, name := range rels {
		var err error
		olds[i] = db.Table(name)
		if arities[i], err = deltaArity(name, olds[i], delta.Insert[name], delta.Delete[name]); err != nil {
			return nil, err
		}
		inserts[i] = delta.Insert[name]
	}
	for i, name := range rels {
		if arities[i] < 0 {
			continue // deletes against an empty relation: vacuous at any arity
		}
		var err error
		if ids[i], err = db.rels.Intern(name); err != nil {
			return nil, err
		}
	}
	ins, err := db.Dict.internRows(inserts...)
	if err != nil {
		return nil, err
	}
	dir := db.tables.Edit()
	for i, name := range rels {
		if arities[i] < 0 {
			continue
		}
		nt := applyToTable(name, olds[i], arities[i], db.Dict, ins[i], delta.Delete[name], &out.applyRows)
		if nt != olds[i] {
			put(dir, ids[i], nt)
		}
	}
	out.applyRows += uint64(dir.Copied())
	out.tables = dir.Freeze()
	return out, nil
}

// deltaArity returns the arity one relation's share of a delta must have —
// the table's, else the first insert's, else -1 (deletes against an absent
// relation match nothing whatever their arity) — or the error of a tuple
// that disagrees with it.
func deltaArity(name string, old *Table, inserts, deletes [][]string) (int, error) {
	arity := -1
	if old != nil {
		arity = old.Arity
	}
	for _, tuple := range inserts {
		if arity < 0 {
			arity = len(tuple)
		}
		if len(tuple) != arity {
			return 0, fmt.Errorf("storage: relation %s mixes arities %d and %d", name, arity, len(tuple))
		}
	}
	if arity < 0 {
		return -1, nil
	}
	for _, tuple := range deletes {
		if len(tuple) != arity {
			return 0, fmt.Errorf("storage: relation %s delete has arity %d, want %d", name, len(tuple), arity)
		}
	}
	return arity, nil
}

// lookupTuple resolves a delete tuple's constants into buf without interning
// (deletes must not grow the dictionary); ok=false when some constant is
// unknown to the dictionary, so the tuple cannot match anything.
func lookupTuple(dict *Dict, tuple []string, buf []Value) bool {
	for i, c := range tuple {
		v, found := dict.Lookup(c)
		if !found {
			return false
		}
		buf[i] = v
	}
	return true
}

// applyToTable computes the new table of one relation under a set of
// validated insertions and deletions, by Apply's rule; ins holds the
// interned insert rows flat, in table layout. old may be nil (relation
// currently empty); the result is nil when the relation ends up empty and old
// itself when its content does not change. touched accumulates the rows
// hashed, probed or copied.
func applyToTable(name string, old *Table, arity int, dict *Dict, ins []Value, deletes [][]string, touched *uint64) *Table {
	oldRows := 0
	if old != nil {
		oldRows = old.Rows()
	}
	stride := max(arity, 1) // a nullary row is one sentinel
	switch n := len(ins)/stride + len(deletes); {
	case n == 0:
		return old
	case n >= oldRows:
		return rewriteFlat(name, old, oldRows, arity, dict, ins, deletes, touched)
	}
	base, built := old.rowMap()
	if built {
		*touched += uint64(oldRows)
	}
	rows := base.Edit()
	buf := make([]Value, arity)
	changed := false
	for _, tuple := range deletes {
		if lookupTuple(dict, tuple, buf) && rows.Delete(buf) {
			changed = true
		}
	}
	for k := 0; k < len(ins); k += stride {
		if row := ins[k : k+arity]; !rows.Has(row) {
			rows.Set(row, struct{}{})
			changed = true
		}
	}
	*touched += uint64(len(ins)/stride + len(deletes) + rows.Copied())
	if !changed {
		return old
	}
	return &Table{Name: name, Arity: arity, rows: rows.Freeze()}
}

// rewriteFlat is applyToTable for a delta at least the size of the relation:
// the survivors and the genuinely new inserts, laid out flat.
func rewriteFlat(name string, old *Table, oldRows, arity int, dict *Dict, ins []Value, deletes [][]string, touched *uint64) *Table {
	stride := max(arity, 1) // a nullary row is one sentinel
	*touched += uint64(oldRows + len(ins)/stride + len(deletes))
	buf := make([]Value, arity)
	var del *TupleMap
	if oldRows > 0 {
		for _, tuple := range deletes {
			if !lookupTuple(dict, tuple, buf) {
				continue
			}
			if del == nil {
				del = NewTupleMap(arity, len(deletes))
			}
			del.Insert(buf)
		}
	}
	// The membership map over the surviving rows is only built when needed
	// (pure-delete deltas skip it).
	data := make([]Value, 0, oldRows*stride+len(ins))
	var present *TupleMap
	if len(ins) > 0 {
		present = NewTupleMap(arity, oldRows+len(ins)/stride)
	}
	appendRow := func(row []Value) {
		data = append(data, row...)
		if arity == 0 {
			data = append(data, 0)
		}
	}
	removed := false
	if old != nil {
		old.Scan(func(row []Value) {
			if del != nil && del.Find(row) >= 0 {
				removed = true
				return
			}
			appendRow(row)
			if present != nil {
				present.Insert(row)
			}
		})
	}
	survivors := len(data)
	for k := 0; k < len(ins); k += stride {
		row := ins[k : k+arity]
		if _, isNew := present.Insert(row); isNew {
			appendRow(row)
		}
	}
	switch {
	case !removed && len(data) == survivors:
		return old
	case len(data) == 0:
		return nil
	}
	return &Table{Name: name, Arity: arity, Data: data}
}

// DiffTables reports how the rows of cur differ from those of old: gone is
// called for every row of old that cur lacks, came for every row of cur that
// old lacks. Either table may be nil (the empty relation). The rows are
// compared through the tables' row maps, so between a table and a descendant
// produced by small deltas the cost is proportional to the change (PMap.Diff
// skips what the two share); a flat table is converted first (Table.RowMap).
// It returns the number of rows it looked at. The row slices are views: copy
// to retain.
func DiffTables(old, cur *Table, gone, came func(row []Value)) int {
	switch {
	case old == cur:
		return 0
	case old == nil:
		cur.Scan(came)
		return cur.Rows()
	case cur == nil:
		old.Scan(gone)
		return old.Rows()
	}
	return cur.RowMap().Diff(old.RowMap(), gone, came)
}
