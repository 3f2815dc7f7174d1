// Package storage is the compiled-database layer of the engine: dictionary
// interning of constants, immutable compiled relations, and integer-keyed
// hash indexes over column sets. A cq.Database is compiled once — strings
// interned to dense Values, tuples laid out flat — and the result is shared,
// read-only, by any number of concurrent evaluations. This gives the data
// side the same compile-once treatment the query side gets from preparation:
// the Yannakakis-style evaluation bounds (Propositions 2.2 and 4.14 of the
// paper) assume relations that can be scanned and probed in constant time
// per tuple, which is exactly what the interned, indexed representation
// provides. Databases evolve by Delta application: DB.Apply produces a new
// snapshot sharing every untouched table — and every untouched part of a
// touched one — with its parent, so a stream of small updates costs time
// proportional to the updates, not to the relations they land in or the
// database.
package storage

import (
	"fmt"
	"sync"
)

// Value is an interned database constant.
type Value int32

// Dict interns string constants to dense Values. The dictionary is
// append-friendly: interning a new constant never changes the Value of an
// existing one, so database snapshots taken at different times can share one
// dictionary — an older snapshot simply never stores the Values appended
// after it. All methods are safe for concurrent use; readers of a live
// snapshot may Lookup and Name while an Apply interns the constants of a
// delta.
type Dict struct {
	mu     sync.RWMutex
	byName map[string]Value
	names  []string
	fresh  int
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byName: map[string]Value{}}
}

// Intern returns the Value of the constant, creating it if needed.
func (d *Dict) Intern(name string) Value {
	d.mu.RLock()
	v, ok := d.byName[name]
	d.mu.RUnlock()
	if ok {
		return v
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.internLocked(name)
}

// locked runs f with the write lock held, for bulk interning through
// internLocked (one lock per batch instead of two atomic operations per
// constant).
func (d *Dict) locked(f func(*Dict) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return f(d)
}

// internLocked appends a constant under the held write lock (shared by
// Intern, Fresh and bulk interning via locked; the mutex is not reentrant).
func (d *Dict) internLocked(name string) Value {
	if v, ok := d.byName[name]; ok {
		return v
	}
	v := Value(len(d.names))
	d.names = append(d.names, name)
	d.byName[name] = v
	return v
}

// Lookup returns the Value of an already-interned constant without mutating
// the dictionary. It is the read path for evaluation over a shared compiled
// database: a constant absent from the dictionary cannot occur in the data.
func (d *Dict) Lookup(name string) (Value, bool) {
	d.mu.RLock()
	v, ok := d.byName[name]
	d.mu.RUnlock()
	return v, ok
}

// Name returns the string of an interned value.
func (d *Dict) Name(v Value) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(v) < 0 || int(v) >= len(d.names) {
		return fmt.Sprintf("<bad:%d>", v)
	}
	return d.names[v]
}

// Fresh interns a brand-new constant that does not occur in the database —
// the ★ constants of the Theorem 3.4 reduction.
func (d *Dict) Fresh(prefix string) Value {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		name := fmt.Sprintf("%s%d", prefix, d.fresh)
		d.fresh++
		if _, exists := d.byName[name]; !exists {
			return d.internLocked(name)
		}
	}
}

// Names returns a copy of the interned name list, in Value order: the
// returned slice's index i holds the name of Value(i). Because the dictionary
// is append-only, the copy is a consistent prefix snapshot even while other
// goroutines keep interning — every Value any existing table references is
// covered. This is what the checkpoint codec serialises.
func (d *Dict) Names() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]string(nil), d.names...)
}

// Len returns the number of interned constants.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.names)
}
