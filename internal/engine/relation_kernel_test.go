package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"d2cq/internal/cq"
)

// nullaryWithEmptyTuple returns the zero-column relation holding the empty
// tuple (the unit of the natural join).
func nullaryWithEmptyTuple() *Relation {
	r := NewRelation()
	r.AddEmpty()
	return r
}

// semijoin returns r ⋉ s on the columns the two share — semijoinOn with
// the shared columns worked out from the relations, as plans fix them.
func semijoin(r, s *Relation) *Relation {
	shared, rIdx, sIdx := sharedColumns(r, s)
	return semijoinOn(r, s, shared, rIdx, sIdx)
}

func TestJoinNullary(t *testing.T) {
	ab := NewRelation("a", "b")
	ab.Add(1, 2)
	ab.Add(3, 4)

	// Unit ⋈ r = r (both orders).
	if j := Join(nullaryWithEmptyTuple(), ab); j.Len() != 2 || j.Arity() != 2 {
		t.Errorf("unit ⋈ r: len=%d arity=%d", j.Len(), j.Arity())
	}
	if j := Join(ab, nullaryWithEmptyTuple()); j.Len() != 2 || j.Arity() != 2 {
		t.Errorf("r ⋈ unit: len=%d arity=%d", j.Len(), j.Arity())
	}
	// Empty nullary ⋈ r = empty (both orders).
	if j := Join(NewRelation(), ab); j.Len() != 0 {
		t.Errorf("empty-nullary ⋈ r: len=%d", j.Len())
	}
	if j := Join(ab, NewRelation()); j.Len() != 0 {
		t.Errorf("r ⋈ empty-nullary: len=%d", j.Len())
	}
	// Unit ⋈ unit = unit.
	if j := Join(nullaryWithEmptyTuple(), nullaryWithEmptyTuple()); j.Len() != 1 || j.Arity() != 0 {
		t.Errorf("unit ⋈ unit: len=%d arity=%d", j.Len(), j.Arity())
	}
}

func TestSemijoinNullary(t *testing.T) {
	ab := NewRelation("a", "b")
	ab.Add(1, 2)
	// No shared columns, non-empty s: keep everything.
	if s := semijoin(ab, nullaryWithEmptyTuple()); s.Len() != 1 {
		t.Errorf("r ⋉ unit: len=%d", s.Len())
	}
	// No shared columns, empty s: drop everything.
	if s := semijoin(ab, NewRelation()); s.Len() != 0 {
		t.Errorf("r ⋉ empty-nullary: len=%d", s.Len())
	}
	// Nullary r against non-empty s.
	if s := semijoin(nullaryWithEmptyTuple(), ab); s.Len() != 1 || s.Arity() != 0 {
		t.Errorf("unit ⋉ r: len=%d arity=%d", s.Len(), s.Arity())
	}
}

func TestProjectNullary(t *testing.T) {
	ab := NewRelation("a", "b")
	ab.Add(1, 2)
	ab.Add(3, 4)
	p := ab.Project(nil)
	if p.Arity() != 0 || p.Len() != 1 {
		t.Errorf("projection to no columns: len=%d arity=%d", p.Len(), p.Arity())
	}
	empty := NewRelation("a", "b")
	if p := empty.Project(nil); p.Len() != 0 {
		t.Errorf("projection of empty relation: len=%d", p.Len())
	}
	// Projecting the unit onto no columns keeps the empty tuple.
	if p := nullaryWithEmptyTuple().Project(nil); p.Len() != 1 {
		t.Errorf("unit projected: len=%d", p.Len())
	}
}

// TestJoinProducesSet verifies the justification for dropping the dedup pass
// at the end of Join: the natural join of two duplicate-free relations is
// duplicate-free.
func TestJoinProducesSet(t *testing.T) {
	r := NewRelation("x", "y")
	r.Add(1, 1)
	r.Add(1, 2)
	r.Add(2, 1)
	s := NewRelation("y", "z")
	s.Add(1, 5)
	s.Add(1, 6)
	s.Add(2, 5)
	j := Join(r, s)
	before := j.Len()
	j.Dedup()
	if j.Len() != before {
		t.Fatalf("Join emitted duplicates: %d rows dedup to %d", before, j.Len())
	}
	if before != 5 { // (1,1)->{5,6}, (1,2)->{5}, (2,1)->{5,6}
		t.Errorf("join size = %d, want 5", before)
	}
}

// TestJoinMultiColumnKey exercises the composite-hash join path (two shared
// columns) against a hand-checked result.
func TestJoinMultiColumnKey(t *testing.T) {
	r := NewRelation("x", "y", "z")
	r.Add(1, 2, 3)
	r.Add(1, 2, 4)
	r.Add(9, 9, 9)
	s := NewRelation("x", "y", "w")
	s.Add(1, 2, 7)
	s.Add(1, 3, 8)
	j := Join(r, s)
	if j.Len() != 2 { // (1,2,3,7) and (1,2,4,7)
		t.Fatalf("multi-column join size = %d, want 2", j.Len())
	}
	for i := 0; i < j.Len(); i++ {
		row := j.Row(i)
		if row[0] != 1 || row[1] != 2 || row[3] != 7 {
			t.Errorf("row %d = %v", i, row)
		}
	}
}

// TestNullaryQueryThroughEngine runs a query with a ground atom (nullary
// hypergraph contribution) end to end through the prepared engine.
func TestNullaryQueryThroughEngine(t *testing.T) {
	q, err := cq.ParseQuery("R('a','b'), S(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	db.Add("R", "a", "b")
	db.Add("S", "1", "2")
	db.Add("S", "3", "4")
	prep, err := NewEngine().Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	n, err := prep.Count(context.Background(), db)
	if err != nil || n != 2 {
		t.Fatalf("Count = %d, err=%v, want 2", n, err)
	}
	// Ground atom fails: whole query unsatisfiable.
	db2 := cq.Database{}
	db2.Add("R", "x", "y")
	db2.Add("S", "1", "2")
	ok, err := prep.Bool(context.Background(), db2)
	if err != nil || ok {
		t.Fatalf("Bool = %v, err=%v, want false", ok, err)
	}
}

// A cover path x–y–z–w whose two end relations are the smallest: smallest
// first alone would join them into a cross product (columns x,y,w,z), so
// joinConnected must take the middle relation, the smallest one sharing a
// column, second (columns x,y,z,w).
func TestJoinConnectedOrder(t *testing.T) {
	mk := func(a, b string, n int) *Relation {
		r := NewRelation(a, b)
		for i := 0; i < n; i++ {
			r.Add(Value(i), Value(i))
		}
		return r
	}
	got := joinConnected([]*Relation{mk("x", "y", 1), mk("w", "z", 2), mk("y", "z", 3)}, nil)
	if want := []string{"x", "y", "z", "w"}; fmt.Sprint(got.Cols) != fmt.Sprint(want) {
		t.Errorf("join columns %v, want %v: the middle relation must be joined second", got.Cols, want)
	}
	if got.Len() != 1 {
		t.Errorf("join has %d rows, want 1", got.Len())
	}
}

// TestOperatorsShareInputs: relations are never written once built, so an
// operator that would copy its input unchanged returns it instead — a
// projection onto the relation's own columns, a semijoin keeping every row,
// a join with the unit — while one that drops rows leaves its input as it
// was.
func TestOperatorsShareInputs(t *testing.T) {
	ab := NewRelation("a", "b")
	ab.Add(1, 2)
	ab.Add(3, 4)
	ab.Add(5, 6)
	data := slices.Clone(ab.Data)
	bc := NewRelation("b", "c")
	bc.Add(2, 0)
	bc.Add(4, 0)
	bc.Add(6, 0)
	if ab.Project([]string{"a", "b"}) != ab {
		t.Error("projection onto the relation's own columns copied it")
	}
	if semijoin(ab, bc) != ab {
		t.Error("semijoin keeping every row copied its input")
	}
	if Join(nullaryWithEmptyTuple(), ab) != ab || Join(ab, nullaryWithEmptyTuple()) != ab {
		t.Error("join with the unit copied the other side")
	}
	bc.Data = bc.Data[:4] // drops b=6
	if s := semijoin(ab, bc); s == ab || !slices.Equal(s.Data, []Value{1, 2, 3, 4}) {
		t.Errorf("semijoin dropping a row = %v", s.Data)
	}
	if p := ab.Project([]string{"b", "a"}); !slices.Equal(p.Data, []Value{2, 1, 4, 3, 6, 5}) {
		t.Errorf("permuted projection = %v", p.Data)
	}
	if !slices.Equal(ab.Data, data) {
		t.Errorf("input written: %v, was %v", ab.Data, data)
	}
}

// TestJoinMatchesNestedLoop: Join equals the nested-loop join row for row,
// in order (r's rows in order, each followed by its matches in s's order),
// on no, one and two shared columns, and allocates its output exactly.
func TestJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	random := func(cols ...string) *Relation {
		r := NewRelation(cols...)
		seen := map[[3]Value]bool{}
		for i := 0; i < 60; i++ {
			var row [3]Value
			for j := range cols {
				row[j] = Value(rng.Intn(6))
			}
			if !seen[row] {
				seen[row] = true
				r.Add(row[:len(cols)]...)
			}
		}
		return r
	}
	for _, c := range []struct{ r, s []string }{
		{[]string{"x", "y"}, []string{"z", "w"}},
		{[]string{"x", "y"}, []string{"y", "z"}},
		{[]string{"x", "y", "z"}, []string{"z", "x", "w"}},
	} {
		r, s := random(c.r...), random(c.s...)
		_, rIdx, sIdx := sharedColumns(r, s)
		var want []Value
		for i := 0; i < r.Len(); i++ {
			for j := 0; j < s.Len(); j++ {
				match := true
				for k := range rIdx {
					match = match && r.Row(i)[rIdx[k]] == s.Row(j)[sIdx[k]]
				}
				if !match {
					continue
				}
				want = append(want, r.Row(i)...)
				for k, v := range s.Row(j) {
					if !slices.Contains(sIdx, k) {
						want = append(want, v)
					}
				}
			}
		}
		j := Join(r, s)
		if !slices.Equal(j.Data, want) {
			t.Errorf("%v ⋈ %v: %d values, want %d", c.r, c.s, len(j.Data), len(want))
		}
		if cap(j.Data) != len(j.Data) {
			t.Errorf("%v ⋈ %v: output cap %d for %d values", c.r, c.s, cap(j.Data), len(j.Data))
		}
	}
}

// sortValues are the Values TestSortForDisplayOrder draws its large ones
// from: the boundaries of one, two, three and four bytes, where the radix
// sort's passes begin or end.
var sortValues = []Value{255, 256, 257, 65535, 65536, 65537, 1<<24 - 1, 1 << 24, 1<<24 + 1, math.MaxInt32 - 1, math.MaxInt32}

// TestSortForDisplayOrder holds SortForDisplay to a lexicographic
// slices.SortFunc of the rows for arities 1–5 and sizes below, at and above
// radixMin, over Values mixing the byte boundaries with small ones (so that
// many rows share a byte and its pass is skipped) — and again with negative
// Values, which key every byte with the sign bit flipped.
func TestSortForDisplayOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	negatives := []Value{-1, -256, -65536, math.MinInt32}
	for a := 1; a <= 5; a++ {
		cols := make([]string, a)
		for j := range cols {
			cols[j] = fmt.Sprint("c", j)
		}
		for _, n := range []int{0, 1, 2, 255, 256, 257, 10000} {
			for _, neg := range []bool{false, true} {
				rel, rows := NewRelation(cols...), make([][]Value, n)
				for i := range rows {
					rows[i] = make([]Value, a)
					for j := range rows[i] {
						switch x := rng.Intn(8); {
						case neg && x == 0:
							rows[i][j] = negatives[rng.Intn(len(negatives))]
						case x < 4:
							rows[i][j] = sortValues[rng.Intn(len(sortValues))]
						default:
							rows[i][j] = Value(rng.Intn(3))
						}
					}
					rel.Add(rows[i]...)
				}
				slices.SortFunc(rows, slices.Compare[[]Value])
				rel.SortForDisplay()
				if want := slices.Concat(rows...); !slices.Equal(rel.Data, want) {
					t.Fatalf("arity %d, %d rows, negatives %v: SortForDisplay differs from the lexicographic order", a, n, neg)
				}
			}
		}
	}
}

// BenchmarkSortForDisplay sorts relations of rows×arity random Values below
// the row count — the dictionary ids of a result over about as many
// constants: 2×4 and 16×4 as a flush's diff, by comparison; 10k×3 and 50k×4
// as EnumerateAll's output, by radix.
func BenchmarkSortForDisplay(b *testing.B) {
	for _, c := range []struct{ rows, arity int }{{2, 4}, {16, 4}, {10000, 3}, {50000, 4}} {
		b.Run(fmt.Sprintf("%dx%d", c.rows, c.arity), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			data := make([]Value, c.rows*c.arity)
			for i := range data {
				data[i] = Value(rng.Intn(c.rows))
			}
			rel := NewRelation(make([]string, c.arity)...)
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				rel.Data = data // SortForDisplay replaces Data, never writes it
				rel.SortForDisplay()
			}
		})
	}
}
