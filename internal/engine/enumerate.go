package engine

import (
	"context"
	"sort"

	"d2cq/internal/decomp"
)

// EnumerateGHD lists all solutions of the full CQ by streaming the fully
// reduced node relations along the given decomposition tree. Output columns
// are the query's variables in sorted order; rows are sorted.
//
// Deprecated: prepare the query once with Engine.Prepare and stream with
// PreparedQuery.Enumerate (or materialise with EnumerateAll).
func EnumerateGHD(inst *Instance, d *decomp.GHD) (*Relation, error) {
	vars := inst.Query.Vars()
	if len(inst.Query.Atoms) == 0 || d.Nodes() == 0 {
		out := NewRelation(vars...)
		if groundSat(inst) {
			out.AddEmpty()
		}
		return out, nil
	}
	p, err := NewPlan(inst.Query, d)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	r, err := newRun(ctx, p, inst, defaultEngine.par())
	if err != nil {
		return nil, err
	}
	es, err := r.fullReduce(ctx)
	if err != nil {
		return nil, err
	}
	out := NewRelation(vars...)
	err = es.enumerate(ctx, r.par, defaultEngine.ordered(), func(row []Value) bool {
		out.Add(row...)
		return true
	})
	if err != nil {
		return nil, err
	}
	out.SortForDisplay()
	return out, nil
}

// EqualRelations reports whether two relations over the same column sets
// contain the same tuples after normalising the value space through the two
// dictionaries (tests use it to compare engines).
func EqualRelations(a *Relation, da *Dict, b *Relation, db *Dict) bool {
	if a.Len() != b.Len() {
		return false
	}
	norm := func(r *Relation, d *Dict) []string {
		cols := append([]string(nil), r.Cols...)
		idx := make([]int, len(cols))
		sorted := append([]string(nil), cols...)
		sort.Strings(sorted)
		for i, c := range sorted {
			idx[i] = r.ColIndex(c)
		}
		rows := make([]string, 0, r.Len())
		for i := 0; i < r.Len(); i++ {
			row := r.Row(i)
			s := ""
			for _, x := range idx {
				s += d.Name(row[x]) + "\x00"
			}
			rows = append(rows, s)
		}
		sort.Strings(rows)
		return rows
	}
	ra, rb := norm(a, da), norm(b, db)
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}
