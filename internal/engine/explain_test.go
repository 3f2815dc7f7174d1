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

// Explain lists the filters Bind applies. In tree-4's shape r5(x3) is the
// λ edge of a leaf below r1's node, whose bag holds x3, so it is enforced
// there once and r1's node, where it is assigned, filters by nothing.
func TestExplainShowsOnlyAppliedFilters(t *testing.T) {
	q, err := cq.ParseQuery("r0(x0,x1,x2), r1(x0,x3,x4), r2(x1,x5), r3(x2,x6,x7), r4(x6), r5(x3), r6(x4), r7(x5), r8(x7)")
	if err != nil {
		t.Fatal(err)
	}
	out := prepared(t, q).Explain()
	if strings.Contains(out, "filters=") {
		t.Errorf("a filter whose atom a λ edge below enforces is shown:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "bag={x0,x3,x4}") && !strings.HasSuffix(line, "λ={a1}") {
			t.Errorf("r1's node is not joined from a1 alone: %q\n%s", line, out)
		}
	}
}

// Explain shows the columns a λ edge is joined on when the edge has
// private ones: on the 6-cycle each × node joins E0(x0,x1) through its
// projection onto x0, since neither its bag nor its other edge holds x1.
func TestExplainShowsProjectedEdges(t *testing.T) {
	q, _ := cycleQuery(6, 1)
	prep, err := NewEngine().Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	out := prep.Explain()
	if n := strings.Count(out, "λ={a0[x0],"); n != 3 {
		t.Errorf("E0 joined through its projection onto x0 at %d nodes, want the 3 × nodes:\n%s", n, out)
	}
	if n := strings.Count(out, "["); n != 3 {
		t.Errorf("%d projected λ edges shown, want 3:\n%s", n, out)
	}
}
