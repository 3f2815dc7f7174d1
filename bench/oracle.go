package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
)

// answer is what the oracle compares: a result's size and an
// order-independent digest of its rows.
type answer struct {
	count int64
	hash  uint64
}

// rowHash digests one result row. A result's digest is the wrapping sum of
// its rows' digests, so a watcher can maintain it from Added/Removed lists
// without holding the rows.
func rowHash(row []string) uint64 {
	h := fnv.New64a()
	for _, v := range row {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func rowsAnswer(rows [][]string) answer {
	a := answer{count: int64(len(rows))}
	for _, r := range rows {
		a.hash += rowHash(r)
	}
	return a
}

// decodeRows renders a result relation as rows of constant names.
func decodeRows(rel *engine.Relation, dict *engine.Dict) [][]string {
	out := make([][]string, rel.Len())
	for i := range out {
		row := rel.Row(i)
		out[i] = make([]string, len(row))
		for c, v := range row {
			out[i][c] = dict.Name(v)
		}
	}
	return out
}

// reference answers every query from scratch over db — a fresh engine,
// Prepare, CompileDB, Bind, Count, EnumerateAll — sharing nothing with the
// system under test but the code.
func reference(ctx context.Context, db cq.Database, queries []*liveQuery) (map[string]answer, error) {
	eng := engine.NewEngine()
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		return nil, err
	}
	out := map[string]answer{}
	for _, q := range queries {
		parsed, err := cq.ParseQuery(q.text)
		if err != nil {
			return nil, err
		}
		prep, err := eng.Prepare(ctx, parsed)
		if err != nil {
			return nil, err
		}
		bound, err := prep.Bind(ctx, cdb)
		if err != nil {
			return nil, err
		}
		count, err := bound.Count(ctx)
		if err != nil {
			return nil, err
		}
		rel, dict, err := bound.EnumerateAll(ctx)
		if err != nil {
			return nil, err
		}
		if int64(rel.Len()) != count {
			return nil, fmt.Errorf("reference %s: Count %d but %d rows enumerated", q.name, count, rel.Len())
		}
		out[q.name] = rowsAnswer(decodeRows(rel, dict))
	}
	return out, nil
}

// naiveCount counts q's solutions over db by backtracking over the atoms with
// a hash index per (atom, bound columns) — no decomposition, nothing shared
// with the engine. It gives up (ok=false) after budget candidate tuples, a
// deterministic stand-in for "the naive run finished in time".
func naiveCount(q cq.Query, db cq.Database, budget int) (count int64, ok bool) {
	type level struct {
		tuples  [][]string
		boundAt []int            // columns whose variable is bound by earlier atoms
		index   map[string][]int // key over boundAt → tuple indexes
	}
	// Order atoms so each shares a variable with the ones before it where
	// possible: smallest relation first, then greedily the most-bound atom.
	left := make([]int, len(q.Atoms))
	for i := range left {
		left[i] = i
	}
	sort.SliceStable(left, func(a, b int) bool { return len(db[q.Atoms[left[a]].Rel]) < len(db[q.Atoms[left[b]].Rel]) })
	bound := map[string]bool{}
	var atoms []cq.Atom
	var levels []level
	for len(left) > 0 {
		best, bestShared := 0, -1
		for i, ai := range left {
			shared := 0
			for _, t := range q.Atoms[ai].Args {
				if t.Var && bound[t.Name] {
					shared++
				}
			}
			if shared > bestShared {
				best, bestShared = i, shared
			}
		}
		a := q.Atoms[left[best]]
		left = append(left[:best], left[best+1:]...)
		lv := level{tuples: db[a.Rel], index: map[string][]int{}}
		for c, t := range a.Args {
			if t.Var && bound[t.Name] {
				lv.boundAt = append(lv.boundAt, c)
			}
		}
		for i, tu := range lv.tuples {
			k := ""
			for _, c := range lv.boundAt {
				k += tu[c] + "\x00"
			}
			lv.index[k] = append(lv.index[k], i)
		}
		for _, t := range a.Args {
			if t.Var {
				bound[t.Name] = true
			}
		}
		atoms = append(atoms, a)
		levels = append(levels, lv)
	}
	assign := map[string]string{}
	steps := 0
	var rec func(d int) bool
	rec = func(d int) bool {
		if d == len(atoms) {
			count++
			return true
		}
		a, lv := atoms[d], levels[d]
		k := ""
		for _, c := range lv.boundAt {
			k += assign[a.Args[c].Name] + "\x00"
		}
		for _, i := range lv.index[k] {
			if steps++; steps > budget {
				return false
			}
			tu := lv.tuples[i]
			var set []string
			match := true
			for c, t := range a.Args {
				if !t.Var {
					match = match && t.Name == tu[c]
					continue
				}
				if v, has := assign[t.Name]; has {
					match = match && v == tu[c] // a variable repeated inside the atom
				} else {
					assign[t.Name] = tu[c]
					set = append(set, t.Name)
				}
			}
			done := match && !rec(d+1)
			for _, v := range set {
				delete(assign, v)
			}
			if done {
				return false
			}
		}
		return true
	}
	ok = rec(0)
	return count, ok
}
