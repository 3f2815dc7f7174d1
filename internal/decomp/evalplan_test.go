package decomp_test

import (
	"context"
	"fmt"
	"testing"

	"d2cq/internal/decomp"
	"d2cq/internal/hyperbench"
	"d2cq/internal/hypergraph"
)

// queryHG builds the hypergraph of a query given as one variable list per
// atom, edges named a0, a1, … in atom order as the engine names them.
func queryHG(atoms ...[]string) *hypergraph.Hypergraph {
	h := hypergraph.New()
	for i, vars := range atoms {
		h.AddEdge(fmt.Sprintf("a%d", i), vars...)
	}
	return h
}

func cycleHG(n int) *hypergraph.Hypergraph {
	atoms := make([][]string, n)
	for i := range atoms {
		atoms[i] = []string{fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", (i+1)%n)}
	}
	return queryHG(atoms...)
}

// disconnected lists the nodes of d whose cover is a cross product.
func disconnected(h *hypergraph.Hypergraph, d *decomp.GHD) []int {
	var out []int
	for u, lambda := range d.Lambdas {
		if !decomp.CoverConnected(h, lambda) {
			out = append(out, u)
		}
	}
	return out
}

func TestCoverConnected(t *testing.T) {
	h := cycleHG(6)
	for _, c := range []struct {
		lambda []int
		want   bool
	}{
		{nil, true},
		{[]int{3}, true},
		{[]int{0, 1}, true},
		{[]int{0, 2}, false},
		{[]int{2, 0, 1}, true}, // linked only through the last edge
		{[]int{0, 2, 4}, false},
		{[]int{0, 1, 3, 4}, false},
		{[]int{0, 1, 2, 3, 4, 5}, true},
	} {
		if got := decomp.CoverConnected(h, c.lambda); got != c.want {
			t.Errorf("CoverConnected(%v) = %v, want %v", c.lambda, got, c.want)
		}
	}
}

// The benchmark's cyclic ghw-2 shapes have width-2 plans whose covers are
// all joins; EvalDecomposition must return one of them.
func TestEvalDecompositionConnectedCovers(t *testing.T) {
	for _, c := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"cycle4", queryHG([]string{"a", "b"}, []string{"b", "c"}, []string{"c", "d"}, []string{"d", "a"})},
		{"jigsaw2x3", queryHG([]string{"h11", "v1"}, []string{"h11", "h12", "v2"}, []string{"h12", "v3"},
			[]string{"h21", "v1"}, []string{"h21", "h22", "v2"}, []string{"h22", "v3"})},
	} {
		d, err := decomp.EvalDecomposition(context.Background(), c.h, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := d.Validate(c.h); err != nil {
			t.Errorf("%s: invalid plan: %v\n%s", c.name, err, d)
		}
		if d.Width() != 2 {
			t.Errorf("%s: width %d, want 2", c.name, d.Width())
		}
		if bad := disconnected(c.h, d); len(bad) > 0 {
			t.Errorf("%s: nodes %v cover their bags by cross products:\n%s", c.name, bad, d)
		}
	}
}

// A 6-cycle has no width-2 plan with connected covers only: the fallback
// keeps the first plan rather than a wider connected one.
func TestEvalDecompositionFallbackKeepsWidth(t *testing.T) {
	h := cycleHG(6)
	d, err := decomp.EvalDecomposition(context.Background(), h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(h); err != nil {
		t.Fatalf("invalid plan: %v\n%s", err, d)
	}
	if d.Width() != 2 {
		t.Errorf("width %d, want 2:\n%s", d.Width(), d)
	}
	if len(disconnected(h, d)) == 0 {
		t.Errorf("6-cycle plan has only connected covers, which no width-2 plan has:\n%s", d)
	}
}

// Preferring connected covers never changes the width of a plan: on every
// corpus entry of ghw ≤ 3 the plan is a valid GHD of width hw.
func TestEvalDecompositionWidthOnCorpus(t *testing.T) {
	c, err := hyperbench.Generate(hyperbench.Options{Seed: 5, PerFamily: 6, MaxWidth: 5})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range c.Entries {
		if e.GHW.Upper > 3 {
			continue
		}
		checked++
		_, k, ok, err := decomp.HypertreeWidth(e.H, 0)
		if err != nil || !ok {
			t.Fatalf("%s: HypertreeWidth: ok=%v err=%v", e.Name, ok, err)
		}
		d, err := decomp.EvalDecomposition(context.Background(), e.H, 0)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if err := d.Validate(e.H); err != nil {
			t.Errorf("%s: invalid plan: %v", e.Name, err)
		}
		if d.Width() != k {
			t.Errorf("%s: plan width %d, hw %d", e.Name, d.Width(), k)
		}
	}
	if checked == 0 {
		t.Fatal("no corpus entry of ghw ≤ 3")
	}
}
