// Package storage is the compiled-database layer of the engine: dictionary
// interning of constants, immutable compiled relations, and the persistent
// integer-keyed maps they and the engine's maintained state are built from.
// A cq.Database is compiled once — strings interned to dense Values, tuples
// laid out flat — and the result is shared, read-only, by any number of
// concurrent evaluations. This gives the data side the same compile-once
// treatment the query side gets from preparation: the Yannakakis-style
// evaluation bounds (Propositions 2.2 and 4.14 of the paper) assume
// relations that can be scanned in constant time per tuple and joined
// through hashing on integer keys, which is what the interned representation
// provides. The dictionary holds no pointers (a byte arena behind an
// open-addressing table) and refuses with ErrDictFull past the Value range.
// Databases evolve by Delta application: DB.Apply produces a new snapshot
// sharing every untouched table — and every untouched part of a touched one
// — with its parent, so a stream of small updates costs time proportional to
// the updates, not to the relations they land in or the database.
package storage

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"unsafe"
)

// Value is an interned database constant.
type Value int32

// ErrDictFull is the error of interning a new constant past 2³¹−1 constants
// (the Value range) or past 4 GiB of name bytes (the arena's offsets).
var ErrDictFull = errors.New("storage: dictionary full")

// The limits ErrDictFull enforces, variables only so that a test can lower
// them.
var maxDictValues, maxDictBytes = math.MaxInt32, int64(math.MaxUint32)

// Dict interns string constants to dense Values, handed out in insertion
// order. The dictionary is append-only: interning a new constant never
// changes the Value of an existing one, so database snapshots taken at
// different times can share one dictionary — an older snapshot simply never
// stores the Values appended after it. All methods are safe for concurrent
// use; readers of a live snapshot may Lookup and Name while an Apply interns
// the constants of a delta.
//
// Every name lives in one byte arena, name v at arena[ends[v]:ends[v+1]],
// found by hashing it (maphash under a per-dictionary seed, so crafted names
// cannot force collisions) into an open-addressing table of Value+1 (0 =
// empty) kept below 3/4 load, as TupleMap's is. No slice holds a pointer, so
// the garbage collector never scans them. Name returns a string aliasing the
// arena, without copying. That is sound because the arena is append-only:
// the bytes of a name anyone has seen are never rewritten, and when append
// moves the arena, the strings already handed out keep the old array alive.
type Dict struct {
	mu    sync.RWMutex
	seed  maphash.Seed
	hash  func(string) uint64 // nil: maphash.String; a test sets a degenerate one
	arena []byte
	ends  []uint32 // ends[0] = 0
	table []int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{seed: maphash.MakeSeed(), ends: []uint32{0}, table: make([]int32, minTableSize)}
}

// len is Len under a held lock.
func (d *Dict) len() int { return len(d.ends) - 1 }

// at returns name v as a string aliasing the arena. The caller holds a lock.
func (d *Dict) at(v Value) string {
	b := d.arena[d.ends[v]:d.ends[v+1]]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// probe returns the table index holding name and its Value, or the empty
// index where the name belongs. The caller holds a lock.
func (d *Dict) probe(name string) (i int, v Value, ok bool) {
	var h uint64
	if d.hash != nil {
		h = d.hash(name)
	} else {
		h = maphash.String(d.seed, name)
	}
	mask := len(d.table) - 1
	for i = int(h) & mask; d.table[i] != 0; i = (i + 1) & mask {
		if v := Value(d.table[i] - 1); d.at(v) == name {
			return i, v, true
		}
	}
	return i, 0, false
}

// index rebuilds the table at the given size from the arena. It reports a
// name the arena holds twice (only a corrupt snapshot can) by its two
// Values. The caller holds the write lock, or the only reference.
func (d *Dict) index(size int) (first, second Value, dup bool) {
	d.table = make([]int32, size)
	for v := range d.len() {
		i, prev, found := d.probe(d.at(Value(v)))
		if found {
			return prev, Value(v), true
		}
		d.table[i] = int32(v) + 1
	}
	return 0, 0, false
}

// add appends a name probe did not find, at the empty index i probe
// returned. The caller holds the write lock.
func (d *Dict) add(name string, i int) (Value, error) {
	v := Value(d.len())
	if int(v) >= maxDictValues || int64(len(d.arena)+len(name)) > maxDictBytes {
		return 0, ErrDictFull
	}
	if (int(v)+1)*4 > len(d.table)*3 {
		d.index(2 * len(d.table))
		i, _, _ = d.probe(name)
	}
	d.arena = append(d.arena, name...)
	d.ends = append(d.ends, uint32(len(d.arena)))
	d.table[i] = int32(v) + 1
	return v, nil
}

// Intern returns the Value of the constant, creating it if needed.
func (d *Dict) Intern(name string) (Value, error) {
	if v, ok := d.Lookup(name); ok {
		return v, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	i, v, ok := d.probe(name) // another Intern may have added it meanwhile
	if ok {
		return v, nil
	}
	return d.add(name, i)
}

// internRows interns the cells of every relation's rows under one write
// lock, each relation into a flat slice in table layout (a nullary row is
// one 0 sentinel). The table is sized once for every cell being new, so the
// interning never re-seats. On ErrDictFull it takes back what it added —
// nobody could see those names under the lock — and leaves the dictionary
// as it found it.
func (d *Dict) internRows(rels ...[][]string) ([][]Value, error) {
	cells := 0
	for _, rows := range rels {
		for _, row := range rows {
			cells += len(row)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if size := tableSize(d.len() + min(cells, maxDictValues)); size > len(d.table) {
		d.index(size)
	}
	mark := d.len()
	out := make([][]Value, len(rels))
	for k, rows := range rels {
		if len(rows) == 0 {
			continue
		}
		data := make([]Value, 0, len(rows)*max(len(rows[0]), 1))
		for _, row := range rows {
			for _, c := range row {
				i, v, ok := d.probe(c)
				if !ok {
					var err error
					if v, err = d.add(c, i); err != nil {
						d.arena, d.ends = d.arena[:d.ends[mark]], d.ends[:mark+1]
						d.index(len(d.table))
						return nil, err
					}
				}
				data = append(data, v)
			}
			if len(row) == 0 {
				data = append(data, 0)
			}
		}
		out[k] = data
	}
	return out, nil
}

// Lookup returns the Value of an already-interned constant without mutating
// the dictionary. It is the read path for evaluation over a shared compiled
// database: a constant absent from the dictionary cannot occur in the data.
func (d *Dict) Lookup(name string) (Value, bool) {
	d.mu.RLock()
	_, v, ok := d.probe(name)
	d.mu.RUnlock()
	return v, ok
}

// Name returns the string of an interned value, without allocating (it
// aliases the arena; see Dict).
func (d *Dict) Name(v Value) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if v < 0 || int(v) >= d.len() {
		return fmt.Sprintf("<bad:%d>", v)
	}
	return d.at(v)
}

// prefix returns the arena and offsets of every name interned so far, which
// the caller may read without the lock while others keep interning (the
// dictionary is append-only). The checkpoint codec streams them.
func (d *Dict) prefix() (arena []byte, ends []uint32) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.arena, d.ends
}

// Len returns the number of interned constants.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.len()
}
