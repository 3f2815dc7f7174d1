package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomRelation(r *rand.Rand, cols []string, domain, rows int) *Relation {
	rel := NewRelation(cols...)
	for i := 0; i < rows; i++ {
		row := make([]Value, len(cols))
		for j := range row {
			row[j] = Value(r.Intn(domain))
		}
		rel.Add(row...)
	}
	rel.Dedup()
	return rel
}

// Property: join is commutative up to column order (same tuple count).
func TestQuickJoinCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRelation(r, []string{"x", "y"}, 4, 6)
		b := randomRelation(r, []string{"y", "z"}, 4, 6)
		ab := Join(a, b)
		ba := Join(b, a)
		return ab.Len() == ba.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: join is associative in tuple count.
func TestQuickJoinAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRelation(r, []string{"x", "y"}, 3, 5)
		b := randomRelation(r, []string{"y", "z"}, 3, 5)
		c := randomRelation(r, []string{"z", "w"}, 3, 5)
		left := Join(Join(a, b), c)
		right := Join(a, Join(b, c))
		return left.Len() == right.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: semijoin is idempotent and dominated by r.
func TestQuickSemijoinIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRelation(r, []string{"x", "y"}, 4, 6)
		b := randomRelation(r, []string{"y", "z"}, 4, 6)
		once := semijoin(a, b)
		twice := semijoin(once, b)
		if once.Len() != twice.Len() {
			return false
		}
		return once.Len() <= a.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: π_S(r ⋈ s) ⋈ s has the same count as r ⋈ s when S covers the
// join's columns — i.e. projection onto all columns is the identity.
func TestQuickProjectIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRelation(r, []string{"x", "y", "z"}, 3, 8)
		p := a.Project([]string{"x", "y", "z"})
		return p.Len() == a.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: semijoin with the projection of itself is the identity:
// r ⋉ π_shared(r) = r.
func TestQuickSemijoinSelf(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRelation(r, []string{"x", "y"}, 4, 6)
		p := a.Project([]string{"y"})
		return semijoin(a, p).Len() == a.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a disjoint-column join is the cross product.
func TestJoinCrossProduct(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randomRelation(r, []string{"x"}, 5, 4)
	b := randomRelation(r, []string{"y"}, 5, 3)
	j := Join(a, b)
	if j.Len() != a.Len()*b.Len() {
		t.Errorf("cross product size = %d, want %d", j.Len(), a.Len()*b.Len())
	}
}

// Property: Dedup leaves a duplicate-free relation and is idempotent.
func TestQuickDedupIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := NewRelation("x", "y")
		for i := 0; i < 12; i++ {
			rel.Add(Value(r.Intn(3)), Value(r.Intn(3)))
		}
		rel.Dedup()
		n := rel.Len()
		rel.Dedup()
		if rel.Len() != n {
			return false
		}
		seen := map[string]bool{}
		for i := 0; i < rel.Len(); i++ {
			k := fmt.Sprint(rel.Row(i))
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
