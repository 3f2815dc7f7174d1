package engine

import (
	"fmt"
	"slices"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// Instance is a compiled query+database pair: constants interned, one
// relation per atom over its distinct variables (repeated variables and
// constants are resolved by selection).
type Instance struct {
	Query cq.Query
	Dict  *Dict
	// AtomRels[i] is the relation for atom i, with columns = the atom's
	// distinct variables (sorted).
	AtomRels []*Relation
	// atomKeys[i] caches edgeKey(atom i's variable set) so the hot
	// EdgeRelation path compares strings instead of re-deriving variable
	// sets (may be nil; derived lazily then).
	atomKeys []string
}

// keys returns the per-atom variable-set keys, deriving and caching them on
// first use.
func (inst *Instance) keys() []string {
	if inst.atomKeys == nil {
		inst.atomKeys = make([]string, len(inst.Query.Atoms))
		for i, a := range inst.Query.Atoms {
			inst.atomKeys[i] = edgeKey(a.VarSet())
		}
	}
	return inst.atomKeys
}

// Compile interns db and builds the per-atom relations for q, straight from
// the strings. The naive reference evaluators use it, so they share nothing
// with the compiled-database path (CompileDB, BindCompile) they check; so
// does reduction.AlignInstance.
func Compile(q cq.Query, db cq.Database) (*Instance, error) {
	if err := db.Validate(q); err != nil {
		return nil, err
	}
	inst := &Instance{Query: q, Dict: NewDict()}
	for _, a := range q.Atoms {
		rel, err := atomRelation(a, db, inst.Dict)
		if err != nil {
			return nil, err
		}
		inst.AtomRels = append(inst.AtomRels, rel)
	}
	inst.keys()
	return inst, nil
}

// BindCompile builds the per-atom relations of q over an already-compiled
// database, reusing its interned dictionary and flat tables: no string is
// hashed and no constant re-interned. The compiled database is only read, so
// concurrent BindCompiles over one storage.DB are safe.
func BindCompile(q cq.Query, sdb *storage.DB) (*Instance, error) {
	inst := &Instance{Query: q, Dict: sdb.Dict}
	for _, a := range q.Atoms {
		rel, err := bindAtomRelation(a, sdb.Table(a.Rel), sdb.Dict)
		if err != nil {
			return nil, err
		}
		inst.AtomRels = append(inst.AtomRels, rel)
	}
	inst.keys()
	return inst, nil
}

// argPlan resolves one argument position of an atom: either a projection
// target (a distinct-variable slot to write) or a constant selection.
type argPlan struct {
	varPos int   // ≥ 0: distinct-variable slot to write
	want   Value // varPos < 0: constant the column must equal
}

// atomMatcher is one atom's term resolution against a dictionary, factored
// out so both the full table scan of bindAtomRelation and the table-diff-driven
// incremental path share it. The projection of matching rows onto the
// atom's distinct variables is injective — the tuple plus the atom's
// constants and repeated variables reconstruct the full row — which is what
// lets the incremental path translate a table-row delta directly into an
// atom-relation delta.
type atomMatcher struct {
	plans     []argPlan
	hasRepeat bool
	buf       []Value
	ok        bool // false: a constant is unknown to the dictionary — nothing matches
	constCols []int
	constVals []Value
}

// newAtomMatcher resolves a's terms against dict. vars must be a.VarSet().
func newAtomMatcher(a cq.Atom, vars []string, dict *Dict) *atomMatcher {
	m := &atomMatcher{plans: make([]argPlan, len(a.Args)), buf: make([]Value, len(vars)), ok: true}
	pos := make(map[string]int, len(vars))
	for i, v := range vars {
		pos[v] = i
	}
	varArgs := 0
	for i, term := range a.Args {
		if term.Var {
			m.plans[i] = argPlan{varPos: pos[term.Name]}
			varArgs++
			continue
		}
		v, found := dict.Lookup(term.Name)
		if !found {
			m.ok = false
			return m
		}
		m.plans[i] = argPlan{varPos: -1, want: v}
		m.constCols = append(m.constCols, i)
		m.constVals = append(m.constVals, v)
	}
	// Without repeated variables every buffer slot is written exactly once
	// per row, so the reset and the mismatch check are skipped.
	m.hasRepeat = varArgs > len(vars)
	return m
}

// match reports whether a table row satisfies the atom's constants and
// repeated variables; when it does, key is the row's projection onto the
// distinct variables (a buffer reused between calls — copy to retain).
func (m *atomMatcher) match(row []Value) (key []Value, _ bool) {
	if m.hasRepeat {
		for j := range m.buf {
			m.buf[j] = -1
		}
	}
	for j, p := range m.plans {
		if p.varPos < 0 {
			if row[j] != p.want {
				return nil, false
			}
			continue
		}
		if m.hasRepeat && m.buf[p.varPos] >= 0 && m.buf[p.varPos] != row[j] {
			return nil, false // repeated variable mismatch
		}
		m.buf[p.varPos] = row[j]
	}
	return m.buf, true
}

// bindAtomRelation is atomRelation over a compiled table: selection on the
// atom's constants and repeated variables, projection onto the distinct
// variables, all on interned values. Constants are resolved with a read-only
// dictionary lookup — a constant the dictionary has never seen cannot occur
// in the data, so the atom relation is empty. Atoms with constants probe the
// table's cached per-column-set index instead of scanning; the index is
// shared by every bind against the same compiled database. Over a table that
// is a set (Table.IsSet) the selection is one already, since its projection
// is injective (see atomMatcher), so nothing is deduplicated; and an atom
// whose arguments are exactly its distinct variables, in order, over a flat
// set table is that table: the relation shares the table's Data.
func bindAtomRelation(a cq.Atom, t *storage.Table, dict *Dict) (*Relation, error) {
	vars := a.VarSet()
	out := NewRelation(vars...)
	if t == nil {
		return out, nil // relation absent from the database: empty
	}
	if t.Arity != len(a.Args) {
		return nil, fmt.Errorf("engine: arity mismatch in %s", a.Rel)
	}
	set := t.IsSet()
	if set && t.Flat() && directArgs(a, vars) {
		out.Data = t.Data
		return out, nil
	}
	m := newAtomMatcher(a, vars, dict)
	if !m.ok {
		return out, nil
	}
	constCols, constVals := m.constCols, m.constVals
	emit := func(row []Value) {
		if key, ok := m.match(row); ok {
			if len(vars) == 0 {
				out.AddEmpty()
			} else {
				out.Add(key...)
			}
		}
	}
	if len(constCols) > 0 && t.Arity > 0 {
		// Probe the table's cached index on the most selective constant
		// column (highest distinct count → smallest expected bucket); match
		// re-checks the remaining constants. Indexing single columns keeps
		// the shared cache small and maximally reusable across queries.
		best := 0
		if len(constCols) > 1 {
			st := t.Stats()
			for i := 1; i < len(constCols); i++ {
				if st.Distinct[constCols[i]] > st.Distinct[constCols[best]] {
					best = i
				}
			}
		}
		ix := t.Index(constCols[best])
		rows := ix.Lookup(constVals[best : best+1])
		out.Data = make([]Value, 0, len(rows)*len(vars))
		for _, ri := range rows {
			emit(ix.Row(ri))
		}
	} else {
		out.Data = make([]Value, 0, t.Rows()*len(vars))
		t.Scan(emit)
	}
	if !set {
		out.Dedup()
	}
	return out, nil
}

// directArgs reports whether an atom's arguments are exactly its distinct
// variables vars, in that order — then its relation is its table's rows.
func directArgs(a cq.Atom, vars []string) bool {
	return slices.EqualFunc(a.Args, vars, func(t cq.Term, v string) bool { return t.Var && t.Name == v })
}

// atomRelation materialises the set of variable bindings of one atom:
// tuples of the relation that agree with the atom's constants and repeated
// variables, projected onto the distinct variables.
func atomRelation(a cq.Atom, db cq.Database, dict *Dict) (*Relation, error) {
	vars := a.VarSet()
	out := NewRelation(vars...)
	pos := make(map[string]int, len(vars))
	for i, v := range vars {
		pos[v] = i
	}
	buf := make([]Value, len(vars))
	for _, tuple := range db[a.Rel] {
		if len(tuple) != len(a.Args) {
			return nil, fmt.Errorf("engine: arity mismatch in %s", a.Rel)
		}
		ok := true
		for i := range buf {
			buf[i] = -1
		}
		for i, t := range a.Args {
			v, err := dict.Intern(tuple[i])
			if err != nil {
				return nil, err
			}
			if t.Var {
				p := pos[t.Name]
				if buf[p] >= 0 && buf[p] != v {
					ok = false // repeated variable mismatch
					break
				}
				buf[p] = v
			} else if t.Name != tuple[i] {
				ok = false // constant mismatch
				break
			}
		}
		if ok {
			if len(vars) == 0 {
				out.AddEmpty()
			} else {
				out.Add(buf...)
			}
		}
	}
	out.Dedup()
	return out, nil
}

// EdgeRelation joins the atom relations of every atom whose variable set
// equals the given variable set (several atoms can share one hypergraph
// edge). vars must be sorted. When a single atom carries the edge, its
// relation is returned directly — the result is read-only, like the atom
// relations it may alias.
func (inst *Instance) EdgeRelation(vars []string) *Relation {
	key := edgeKey(vars)
	keys := inst.keys()
	var acc *Relation
	for i := range inst.Query.Atoms {
		if keys[i] != key {
			continue
		}
		if acc == nil {
			acc = inst.AtomRels[i]
		} else {
			acc = Join(acc, inst.AtomRels[i])
		}
	}
	if acc == nil {
		acc = NewRelation(vars...)
	}
	return acc
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
