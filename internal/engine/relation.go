package engine

import (
	"sort"
	"sync"

	"d2cq/internal/storage"
)

// Relation is a set of tuples over named columns (query variables). Tuples
// are stored flat: row i occupies Data[i*Arity : (i+1)*Arity].
type Relation struct {
	Cols []string
	Data []Value
}

// NewRelation returns an empty relation over the given columns.
func NewRelation(cols ...string) *Relation {
	return &Relation{Cols: append([]string(nil), cols...)}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Cols) }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if len(r.Cols) == 0 {
		// A zero-column relation holds 0 or 1 (the empty tuple) rows; we
		// track that via a sentinel in Data.
		return len(r.Data)
	}
	return len(r.Data) / len(r.Cols)
}

// Add appends a tuple. The caller must supply Arity values (for the
// zero-column relation, call AddEmpty).
func (r *Relation) Add(tuple ...Value) {
	r.Data = append(r.Data, tuple...)
}

// AddEmpty marks the zero-column relation as containing the empty tuple.
func (r *Relation) AddEmpty() {
	if len(r.Cols) != 0 {
		panic("engine: AddEmpty on non-nullary relation")
	}
	if len(r.Data) == 0 {
		r.Data = append(r.Data, 0) // sentinel row
	}
}

// Row returns the i-th tuple as a slice view (do not mutate).
func (r *Relation) Row(i int) []Value {
	a := len(r.Cols)
	return r.Data[i*a : (i+1)*a]
}

// ColIndex returns the index of the named column, or -1.
func (r *Relation) ColIndex(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	return &Relation{Cols: append([]string(nil), r.Cols...), Data: append([]Value(nil), r.Data...)}
}

// Dedup removes duplicate tuples in place (order not preserved).
func (r *Relation) Dedup() {
	a := len(r.Cols)
	if a == 0 || r.Len() <= 1 {
		return
	}
	seen := storage.NewTupleMap(a, r.Len())
	out := r.Data[:0]
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		if _, isNew := seen.Insert(row); isNew {
			out = append(out, row...)
		}
	}
	r.Data = out
}

// Project returns the relation projected (with dedup) onto the given columns,
// which must all exist.
func (r *Relation) Project(cols []string) *Relation {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = r.ColIndex(c)
		if idx[i] < 0 {
			panic("engine: projection onto missing column " + c)
		}
	}
	out := NewRelation(cols...)
	if len(cols) == 0 {
		if r.Len() > 0 {
			out.AddEmpty()
		}
		return out
	}
	if len(cols) == len(r.Cols) {
		// A permutation of the columns of a set: no two rows collide.
		out.Data = make([]Value, 0, len(r.Data))
		for i := 0; i < r.Len(); i++ {
			row := r.Row(i)
			for _, x := range idx {
				out.Data = append(out.Data, row[x])
			}
		}
		return out
	}
	seen := storage.NewTupleMap(len(cols), r.Len())
	buf := make([]Value, len(cols))
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		for j, x := range idx {
			buf[j] = row[x]
		}
		if _, isNew := seen.Insert(buf); isNew {
			out.Add(buf...)
		}
	}
	return out
}

// Join returns the natural join r ⋈ s on their shared columns. Both inputs
// are sets, so the natural join is duplicate-free by construction: each
// output tuple determines the r-tuple (all of r's columns are present) and
// the s-tuple (the shared columns plus s's extras), so distinct input pairs
// yield distinct outputs and no dedup pass is needed.
func Join(r, s *Relation) *Relation {
	shared, rIdx, sIdx := sharedColumns(r, s)
	// Output columns: r's columns then s's non-shared columns.
	var extraS []int
	outCols := append([]string(nil), r.Cols...)
	for i, c := range s.Cols {
		if r.ColIndex(c) < 0 {
			outCols = append(outCols, c)
			extraS = append(extraS, i)
		}
	}
	out := NewRelation(outCols...)
	if len(r.Cols) == 0 {
		if r.Len() == 0 {
			return out
		}
		// r is the nullary relation holding the empty tuple: join = s.
		return s.Clone()
	}
	if len(s.Cols) == 0 {
		if s.Len() == 0 {
			return out
		}
		return r.Clone()
	}
	emit := func(rRow, sRow []Value) {
		out.Data = append(out.Data, rRow...)
		for _, x := range extraS {
			out.Data = append(out.Data, sRow[x])
		}
	}
	if len(shared) == 0 {
		// Cross product: no key to hash on.
		for i := 0; i < r.Len(); i++ {
			row := r.Row(i)
			for j := 0; j < s.Len(); j++ {
				emit(row, s.Row(j))
			}
		}
		return out
	}
	if len(shared) == 1 {
		// Single-column fast path: probe a direct value-keyed index.
		index := make(map[Value][]int32, s.Len())
		sc, rc := sIdx[0], rIdx[0]
		for i := 0; i < s.Len(); i++ {
			v := s.Row(i)[sc]
			index[v] = append(index[v], int32(i))
		}
		for i := 0; i < r.Len(); i++ {
			row := r.Row(i)
			for _, si := range index[row[rc]] {
				emit(row, s.Row(int(si)))
			}
		}
		return out
	}
	// Multi-column path: composite 64-bit hash with collision verification.
	index := storage.BuildIndex(s.Data, len(s.Cols), sIdx)
	bufR := make([]Value, len(shared))
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		for j, x := range rIdx {
			bufR[j] = row[x]
		}
		for _, si := range index.Lookup(bufR) {
			emit(row, s.Row(int(si)))
		}
	}
	return out
}

// Semijoin returns r ⋉ s: the tuples of r that join with some tuple of s.
func Semijoin(r, s *Relation) *Relation {
	shared, rIdx, sIdx := sharedColumns(r, s)
	return semijoinOn(r, s, shared, rIdx, sIdx)
}

// semijoinOn is Semijoin with the shared columns precomputed — evaluation
// passes over a plan use it with positions fixed at plan time.
func semijoinOn(r, s *Relation, shared []string, rIdx, sIdx []int) *Relation {
	out := NewRelation(r.Cols...)
	if len(shared) == 0 {
		if s.Len() > 0 {
			return r.Clone()
		}
		return out
	}
	if len(shared) == 1 {
		// Single-column fast path: membership on a direct value set.
		member := make(map[Value]struct{}, s.Len())
		sc, rc := sIdx[0], rIdx[0]
		for i := 0; i < s.Len(); i++ {
			member[s.Row(i)[sc]] = struct{}{}
		}
		for i := 0; i < r.Len(); i++ {
			row := r.Row(i)
			if _, ok := member[row[rc]]; ok {
				out.Data = append(out.Data, row...)
			}
		}
		return out
	}
	member := storage.NewTupleMap(len(shared), s.Len())
	bufS := make([]Value, len(shared))
	for i := 0; i < s.Len(); i++ {
		row := s.Row(i)
		for j, x := range sIdx {
			bufS[j] = row[x]
		}
		member.Insert(bufS)
	}
	bufR := make([]Value, len(shared))
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		for j, x := range rIdx {
			bufR[j] = row[x]
		}
		if member.Find(bufR) >= 0 {
			out.Data = append(out.Data, row...)
		}
	}
	return out
}

func sharedColumns(r, s *Relation) (shared []string, rIdx, sIdx []int) {
	for i, c := range r.Cols {
		if j := s.ColIndex(c); j >= 0 {
			shared = append(shared, c)
			rIdx = append(rIdx, i)
			sIdx = append(sIdx, j)
		}
	}
	return
}

// SortForDisplay orders tuples lexicographically (for deterministic test
// output and golden comparisons).
func (r *Relation) SortForDisplay() { r.sortPar(1) }

// sortPar is SortForDisplay on up to par workers: a permutation of row
// indexes is sorted in contiguous runs concurrently and the runs are merged.
// Ties are bitwise-identical rows, so the result is the same Data the
// sequential sort produces for any par.
func (r *Relation) sortPar(par int) {
	a := len(r.Cols)
	if a == 0 {
		return
	}
	n := r.Len()
	less := func(i, j int32) bool {
		ri, rj := r.Row(int(i)), r.Row(int(j))
		for k := 0; k < a; k++ {
			if ri[k] != rj[k] {
				return ri[k] < rj[k]
			}
		}
		return false
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	if par <= 1 || n < 4096 {
		sort.Slice(idx, func(i, j int) bool { return less(idx[i], idx[j]) })
	} else {
		if par > n {
			par = n
		}
		bounds := make([]int, par+1)
		for w := 0; w <= par; w++ {
			bounds[w] = w * n / par
		}
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			seg := idx[bounds[w]:bounds[w+1]]
			wg.Add(1)
			go func(seg []int32) {
				defer wg.Done()
				sort.Slice(seg, func(i, j int) bool { return less(seg[i], seg[j]) })
			}(seg)
		}
		wg.Wait()
		// k-way merge of the par sorted runs (par is small: linear scan of
		// the run heads per output row).
		merged := make([]int32, 0, n)
		heads := make([]int, par)
		copy(heads, bounds[:par])
		for len(merged) < n {
			best := -1
			for w := 0; w < par; w++ {
				if heads[w] == bounds[w+1] {
					continue
				}
				if best < 0 || less(idx[heads[w]], idx[heads[best]]) {
					best = w
				}
			}
			merged = append(merged, idx[heads[best]])
			heads[best]++
		}
		idx = merged
	}
	out := make([]Value, 0, len(r.Data))
	for _, i := range idx {
		out = append(out, r.Row(int(i))...)
	}
	r.Data = out
}
