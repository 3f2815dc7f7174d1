package storage

// Index is a hash index over one column set of a relation: it maps the
// values a tuple takes on those columns to the list of row numbers with
// those values. Single-column indexes take the fast path of a direct
// map[Value][]int32; multi-column indexes hash the column tuple to 64 bits
// and verify candidates against the stored data on lookup, so hash
// collisions cost a comparison, never a wrong answer. Row numbers refer to
// the flat data the index was built over (Row returns a row by number): a
// flat table's own Data, or the listing Table.Index made of a persistent
// table's rows.
type Index struct {
	cols  []int
	arity int
	data  []Value
	hash  func([]Value) uint64

	single map[Value][]int32  // len(cols) == 1
	multi  map[uint64][]int32 // len(cols) >= 2
}

// BuildIndex indexes the flat relation data (row i occupies
// data[i*arity:(i+1)*arity]) on the given column positions. len(cols) must
// be at least 1 and every position must be within the arity.
func BuildIndex(data []Value, arity int, cols []int) *Index {
	return buildIndexWithHash(data, arity, cols, HashTuple)
}

// buildIndexWithHash is the test seam for the collision-verification path.
func buildIndexWithHash(data []Value, arity int, cols []int, hash func([]Value) uint64) *Index {
	if len(cols) == 0 {
		panic("storage: index over empty column set")
	}
	for _, c := range cols {
		if c < 0 || c >= arity {
			panic("storage: index column out of range")
		}
	}
	ix := &Index{cols: append([]int(nil), cols...), arity: arity, data: data, hash: hash}
	rows := len(data) / arity
	if len(cols) == 1 {
		ix.single = make(map[Value][]int32, rows)
		c := cols[0]
		for i := 0; i < rows; i++ {
			v := data[i*arity+c]
			ix.single[v] = append(ix.single[v], int32(i))
		}
		return ix
	}
	ix.multi = make(map[uint64][]int32, rows)
	buf := make([]Value, len(cols))
	for i := 0; i < rows; i++ {
		row := data[i*arity : (i+1)*arity]
		for j, c := range cols {
			buf[j] = row[c]
		}
		h := hash(buf)
		ix.multi[h] = append(ix.multi[h], int32(i))
	}
	return ix
}

// Row returns the indexed data's row of the given number (do not mutate).
func (ix *Index) Row(r int32) []Value {
	return ix.data[int(r)*ix.arity : (int(r)+1)*ix.arity]
}

// matches reports whether the indexed columns of row equal key.
func (ix *Index) matches(row int32, key []Value) bool {
	base := int(row) * ix.arity
	for j, c := range ix.cols {
		if ix.data[base+c] != key[j] {
			return false
		}
	}
	return true
}

// Lookup returns the rows whose indexed columns equal key. The returned
// slice is shared with the index when no hash collision occurred (the common
// case) and must not be mutated.
func (ix *Index) Lookup(key []Value) []int32 {
	if ix.single != nil {
		return ix.single[key[0]]
	}
	cand := ix.multi[ix.hash(key)]
	for i, row := range cand {
		if !ix.matches(row, key) {
			// Collision: fall off the shared-slice fast path and filter.
			out := append([]int32(nil), cand[:i]...)
			for _, r := range cand[i+1:] {
				if ix.matches(r, key) {
					out = append(out, r)
				}
			}
			return out
		}
	}
	return cand
}
