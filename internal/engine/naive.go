package engine

import (
	"sort"

	"d2cq/internal/cq"
)

// NaiveBCQ decides q(D) ≠ ∅ by plain backtracking over the atoms, with no
// decomposition. Worst-case exponential in the query size — this is the
// baseline the dichotomy separates the GHD engine from.
func NaiveBCQ(q cq.Query, db cq.Database) (bool, error) {
	inst, err := Compile(q, db)
	if err != nil {
		return false, err
	}
	found := false
	naiveSearch(inst, func(map[string]Value) bool {
		found = true
		return false // stop at the first solution
	})
	return found, nil
}

// NaiveCount counts the solutions of the full CQ q by exhaustive
// backtracking.
func NaiveCount(q cq.Query, db cq.Database) (int64, error) {
	inst, err := Compile(q, db)
	if err != nil {
		return 0, err
	}
	var n int64
	naiveSearch(inst, func(map[string]Value) bool {
		n++
		return true
	})
	return n, nil
}

// NaiveEnumerate returns all solutions as a relation over the query's
// variables, sorted for determinism. Intended for small instances and
// ground-truth checks in tests.
func NaiveEnumerate(q cq.Query, db cq.Database) (*Relation, *Dict, error) {
	inst, err := Compile(q, db)
	if err != nil {
		return nil, nil, err
	}
	vars := q.Vars()
	out := NewRelation(vars...)
	naiveEnumerate(inst, vars, func(row []Value) bool {
		out.addRow(row)
		return true
	})
	out.SortForDisplay()
	return out, inst.Dict, nil
}

// NaiveSolutions streams every solution of q over db from the naive
// backtracking baseline as Solutions — the plan-free counterpart of
// PreparedQuery.Enumerate for ground truth and CLI fallbacks. The Solution's
// value slice is reused between yields; yield returns false to stop early.
func NaiveSolutions(q cq.Query, db cq.Database, yield func(Solution) bool) error {
	inst, err := Compile(q, db)
	if err != nil {
		return err
	}
	vars := q.Vars()
	sol := Solution{vars: vars, dict: inst.Dict}
	naiveEnumerate(inst, vars, func(row []Value) bool {
		sol.row = row
		return yield(sol)
	})
	return nil
}

// naiveEnumerate streams every solution of the compiled instance as a value
// row parallel to vars (sorted query variables). The row slice is reused
// between yields. Distinct solutions are yielded exactly once: each full
// assignment arises from exactly one combination of atom tuples.
func naiveEnumerate(inst *Instance, vars []string, yield func(row []Value) bool) {
	row := make([]Value, len(vars))
	naiveSearch(inst, func(assign map[string]Value) bool {
		for i, v := range vars {
			row[i] = assign[v]
		}
		return yield(row)
	})
}

// naiveSearch backtracks over atoms ordered by selectivity (fewest tuples
// first), calling yield for every solution; yield returns false to stop.
func naiveSearch(inst *Instance, yield func(assign map[string]Value) bool) {
	order := make([]int, len(inst.Query.Atoms))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return inst.AtomRels[order[a]].Len() < inst.AtomRels[order[b]].Len()
	})
	assign := map[string]Value{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(order) {
			return yield(assign)
		}
		rel := inst.AtomRels[order[i]]
		for t := 0; t < rel.Len(); t++ {
			row := rel.Row(t)
			var touched []string
			ok := true
			for c, v := range rel.Cols {
				if prev, bound := assign[v]; bound {
					if prev != row[c] {
						ok = false
						break
					}
					continue
				}
				assign[v] = row[c]
				touched = append(touched, v)
			}
			if ok {
				if !rec(i + 1) {
					for _, v := range touched {
						delete(assign, v)
					}
					return false
				}
			}
			for _, v := range touched {
				delete(assign, v)
			}
		}
		return true
	}
	rec(0)
}
