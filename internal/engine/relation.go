package engine

import (
	"slices"
	"sort"

	"d2cq/internal/storage"
)

// Relation is a set of tuples over named columns (query variables). Tuples
// are stored flat: row i occupies Data[i*Arity : (i+1)*Arity].
//
// A relation is written only while it is being built (Add, AddEmpty, Dedup,
// SortForDisplay on a relation of one's own). Once the function that built it
// returns it, neither its Data nor its Cols is ever written again. That is
// what lets the operators share instead of copy: Project onto a relation's
// own columns and a semijoin that keeps every row return their input, Join
// with the nullary relation returns the other side, an atom's relation may be
// its table's own Data, and a message's key tuples are joined in place.
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

// addRow appends row, which for the zero-column relation is the empty tuple.
func (r *Relation) addRow(row []Value) {
	if len(r.Cols) == 0 {
		r.AddEmpty()
		return
	}
	r.Data = append(r.Data, row...)
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
// which must all exist. Projecting onto the relation's own columns, in
// order, returns the relation itself.
func (r *Relation) Project(cols []string) *Relation {
	switch {
	case slices.Equal(cols, r.Cols):
		return r
	case len(cols) == 0:
		out := NewRelation()
		if r.Len() > 0 {
			out.AddEmpty()
		}
		return out
	case len(cols) < len(r.Cols):
		out, _ := projectCounts(r, cols)
		return out
	}
	// A permutation of the columns of a set: no two rows collide.
	idx := colIndexes(r, cols)
	out := NewRelation(cols...)
	out.Data = make([]Value, 0, len(r.Data))
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		for _, x := range idx {
			out.Data = append(out.Data, row[x])
		}
	}
	return out
}

// projectCounts projects r onto cols, which must all exist, returning the
// projection and the multiplicity of every projected tuple — the derivation
// counts the incremental engine maintains. A row counts for the product of
// its values in r's weight columns (for a row of a join of weighted
// projections, the number of full-join rows it stands for), and for 1 when
// there are none. The distinct projected tuples are the map's keys, in
// first-seen order: the relation keeps them in place, unless most of the
// room reserved for them went unused. Onto no column, it holds the empty
// tuple while r has a row.
func projectCounts(r *Relation, cols []string) (*Relation, *storage.TupleMap) {
	m := countProjection(r, cols)
	out := NewRelation(cols...)
	switch {
	case len(cols) > 0:
		out.Data = m.Keys()
		if cap(out.Data) > 2*len(out.Data) {
			out.Data = slices.Clone(out.Data)
		}
	case m.Len() > 0:
		out.AddEmpty()
	}
	return out, m
}

// countProjection is projectCounts' map: every projected tuple with its
// multiplicity.
func countProjection(r *Relation, cols []string) *storage.TupleMap {
	idx, weights := colIndexes(r, cols), []int{}
	for x, c := range r.Cols {
		if isWeightCol(c) {
			weights = append(weights, x)
		}
	}
	m := storage.NewTupleMap(len(cols), r.Len())
	buf := make([]Value, len(cols))
	for i := 0; i < r.Len(); i++ {
		row, w := r.Row(i), int64(1)
		for _, x := range weights {
			w *= int64(row[x])
		}
		m.Add(project(buf, row, idx), w)
	}
	return m
}

// colIndexes returns the position in r of every column of cols, which must
// all exist.
func colIndexes(r *Relation, cols []string) []int {
	idx := make([]int, len(cols))
	for i, c := range cols {
		if idx[i] = r.ColIndex(c); idx[i] < 0 {
			panic("engine: projection onto missing column " + c)
		}
	}
	return idx
}

// flatGroups is a relation's rows grouped on some of its columns, laid out
// flat: slot s of keys is one key tuple, and the a-wide rows carrying it are
// bucket s, rows[start[s]*a : start[s+1]*a], in their order in the relation.
type flatGroups struct {
	keys  *storage.TupleMap
	start []int32
	rows  []Value
	a     int
}

// groupRows groups r's rows on the columns at pos, hashing each row once,
// into a grouped copy.
func groupRows(r *Relation, pos []int) flatGroups {
	n := r.Len()
	keys := storage.NewTupleMap(len(pos), n)
	slots := make([]int32, n)
	buf := make([]Value, len(pos))
	for i := range slots {
		slots[i], _ = keys.Insert(project(buf, r.Row(i), pos))
	}
	rows, start := groupBySlot(r, slots, keys.Len())
	return flatGroups{keys: keys, start: start, rows: rows, a: len(r.Cols)}
}

// groupBySlot lays r's rows out in n buckets, row i in bucket slots[i] (none
// when that is negative), by a stable counting sort of the slots: bucket s is
// rows start[s] to start[s+1] of the layout, in r's order. When the slots are
// in order already, the layout is r's own Data.
func groupBySlot(r *Relation, slots []int32, n int) (rows []Value, start []int32) {
	start = make([]int32, n+1)
	inOrder, prev := true, int32(0)
	for _, s := range slots {
		inOrder = inOrder && s >= prev
		prev = s
		start[s+1]++ // start[0] counts the negative slots
	}
	start[0] = 0
	for s := 1; s <= n; s++ {
		start[s] += start[s-1]
	}
	if inOrder {
		return r.Data, start
	}
	// start[s] is the cursor of bucket s while the rows are scattered, which
	// leaves it at the start of bucket s+1: shifting it by one restores it.
	a, data := len(r.Cols), r.Data
	rows = make([]Value, int(start[n])*a)
	for i, s := range slots {
		if s >= 0 {
			to := rows[int(start[s])*a:][:a]
			for j := range to {
				to[j] = data[i*a+j]
			}
			start[s]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return rows, start
}

// bucket returns the rows carrying the key at slot s.
func (g *flatGroups) bucket(s int32) []Value {
	lo, hi := int(g.start[s])*g.a, int(g.start[s+1])*g.a
	return g.rows[lo:hi:hi]
}

// get returns the rows carrying key (none when no row does).
func (g *flatGroups) get(key []Value) []Value {
	if s := g.keys.Find(key); s >= 0 {
		return g.bucket(s)
	}
	return nil
}

// Join returns the natural join r ⋈ s on their shared columns. Both inputs
// are sets, so the natural join is duplicate-free by construction: each
// output tuple determines the r-tuple (all of r's columns are present) and
// the s-tuple (the shared columns plus s's extras), so distinct input pairs
// yield distinct outputs and no dedup pass is needed. The output is counted
// before it is filled, so it is allocated once at its exact size.
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
	out := &Relation{Cols: outCols}
	if len(r.Cols) == 0 {
		if r.Len() == 0 {
			return out
		}
		return s // r is the nullary relation holding the empty tuple
	}
	if len(s.Cols) == 0 {
		if s.Len() == 0 {
			return out
		}
		return r
	}
	if r.Len() == 0 || s.Len() == 0 {
		return out
	}
	emit := func(rRow, sRow []Value) {
		out.Data = append(out.Data, rRow...)
		for _, x := range extraS {
			out.Data = append(out.Data, sRow[x])
		}
	}
	if len(shared) == 0 {
		// Cross product: no key to hash on.
		out.Data = make([]Value, 0, r.Len()*s.Len()*len(outCols))
		for i := 0; i < r.Len(); i++ {
			row := r.Row(i)
			for j := 0; j < s.Len(); j++ {
				emit(row, s.Row(j))
			}
		}
		return out
	}
	g, a := groupRows(s, sIdx), len(s.Cols)
	match := make([]int32, r.Len())
	total := 0
	buf := make([]Value, len(shared))
	for i := range match {
		match[i] = g.keys.Find(project(buf, r.Row(i), rIdx))
		if match[i] >= 0 {
			total += len(g.bucket(match[i])) / a
		}
	}
	out.Data = make([]Value, 0, total*len(outCols))
	for i, m := range match {
		if m < 0 {
			continue
		}
		row, bucket := r.Row(i), g.bucket(m)
		for off := 0; off < len(bucket); off += a {
			emit(row, bucket[off:off+a])
		}
	}
	return out
}

// semijoinOn returns r ⋉ s, the tuples of r that join with some tuple of s,
// on shared columns precomputed at plan time (sharedColumns): r's positions
// rIdx, s's positions sIdx.
func semijoinOn(r, s *Relation, shared []string, rIdx, sIdx []int) *Relation {
	if len(shared) == 0 {
		if s.Len() > 0 {
			return r
		}
		return NewRelation(r.Cols...)
	}
	if len(shared) == 1 {
		// Single-column fast path: membership on a direct value set.
		member := make(map[Value]struct{}, s.Len())
		sc, rc := sIdx[0], rIdx[0]
		for i := 0; i < s.Len(); i++ {
			member[s.Row(i)[sc]] = struct{}{}
		}
		return filterRows(r, func(row []Value) bool {
			_, ok := member[row[rc]]
			return ok
		})
	}
	member := storage.NewTupleMap(len(shared), s.Len())
	buf := make([]Value, len(shared))
	for i := 0; i < s.Len(); i++ {
		member.Insert(project(buf, s.Row(i), sIdx))
	}
	return semijoinMap(r, member, rIdx)
}

// semijoinMap returns the rows of r whose values at the positions pos are a
// key of m.
func semijoinMap(r *Relation, m *storage.TupleMap, pos []int) *Relation {
	buf := make([]Value, len(pos))
	return filterRows(r, func(row []Value) bool { return m.Find(project(buf, row, pos)) >= 0 })
}

// filterRows returns the rows of r that keep accepts — r itself when it
// accepts every one. keep sees every row once, in row order.
func filterRows(r *Relation, keep func(row []Value) bool) *Relation {
	n, a := r.Len(), len(r.Cols)
	i := 0
	for i < n && keep(r.Row(i)) {
		i++
	}
	if i == n {
		return r
	}
	// Row i is the first one dropped: keep the rows before it and filter the
	// rest into an output sized for keeping all of them.
	out := &Relation{Cols: r.Cols, Data: make([]Value, i*a, (n-1)*a)}
	copy(out.Data, r.Data[:i*a])
	for i++; i < n; i++ {
		if row := r.Row(i); keep(row) {
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

// radixMin is the fewest rows SortForDisplay radix-sorts, the number of
// digits of a byte: below it, clearing and summing a pass's 256 counters
// costs more than comparing rows.
const radixMin = 256

// SortForDisplay orders tuples lexicographically (for deterministic test
// output and golden comparisons). A permutation of row indexes is sorted — by
// comparison below radixMin rows, by radixSortRows from there on — and the
// rows are copied out in its order.
func (r *Relation) SortForDisplay() {
	a, n := len(r.Cols), r.Len()
	if a == 0 || n < 2 {
		return
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	if n < radixMin {
		slices.SortFunc(idx, func(i, j int32) int { return slices.Compare(r.Row(int(i)), r.Row(int(j))) })
	} else {
		idx = radixSortRows(r.Data, a, idx)
	}
	out := make([]Value, 0, len(r.Data))
	for _, i := range idx {
		out = append(out, r.Row(int(i))...)
	}
	r.Data = out
}

// radixSortRows sorts idx, a permutation of the rows of data (a Values each),
// into the lexicographic order of the rows by an LSD radix sort: the columns
// last to first, each by its Values' bytes low to high, every pass a stable
// counting sort of idx. One sequential scan of a column counts all four of
// its bytes; a pass on a byte every row shares orders nothing and is skipped,
// so a column whose largest Value fits in b bytes takes at most b passes.
// Values order as int32s: when one is negative, each is keyed with its sign
// bit flipped.
func radixSortRows(data []Value, a int, idx []int32) []int32 {
	n := int32(len(idx))
	var bias uint32
	if slices.Min(data) < 0 {
		bias = 1 << 31
	}
	tmp := make([]int32, n)
	for k := a - 1; k >= 0; k-- {
		var counts [4][256]int32
		for i := k; i < len(data); i += a {
			x := uint32(data[i]) ^ bias
			counts[0][byte(x)]++
			counts[1][byte(x>>8)]++
			counts[2][byte(x>>16)]++
			counts[3][byte(x>>24)]++
		}
		for d := range counts {
			c, shift := &counts[d], 8*d
			if slices.Contains(c[:], n) {
				continue
			}
			sum := int32(0)
			for b, m := range c {
				c[b], sum = sum, sum+m
			}
			for _, i := range idx {
				b := byte((uint32(data[int(i)*a+k]) ^ bias) >> shift)
				tmp[c[b]] = i
				c[b]++
			}
			idx, tmp = tmp, idx
		}
	}
	return idx
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
