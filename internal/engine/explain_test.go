package engine

import (
	"context"
	"strings"
	"testing"

	"d2cq/internal/cq"
)

func TestExplainOutput(t *testing.T) {
	q, err := cq.ParseQuery("R(x,y), S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	db.Add("R", "1", "2")
	db.Add("S", "2", "3")
	out, err := prepared(t, q).ExplainDB(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"decomposition:", "node", "bag=", "λ=", "|rel|="} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

// Explain marks a cover that is a cross product. The 4-cycle has a width-2
// plan without one; on the 6-cycle every width-2 plan needs one, so the
// mark shows where that query pays rows² per bag.
func TestExplainMarksCrossProductCovers(t *testing.T) {
	for _, c := range []struct {
		n     int
		cross bool
	}{{4, false}, {6, true}} {
		q, _ := cycleQuery(c.n, 1)
		prep, err := NewEngine().Prepare(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		out := prep.Explain()
		if got := strings.Contains(out, "} ×"); got != c.cross {
			t.Errorf("%d-cycle: cross-product mark shown = %v, want %v:\n%s", c.n, got, c.cross, out)
		}
	}
}

func TestExplainGroundQuery(t *testing.T) {
	q, err := cq.ParseQuery("Fact('a')")
	if err != nil {
		t.Fatal(err)
	}
	out, err := prepared(t, q).ExplainDB(context.Background(), cq.Database{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ground query") {
		t.Errorf("Explain output: %s", out)
	}
}
