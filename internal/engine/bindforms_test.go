package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"d2cq/internal/cq"
	"d2cq/internal/hyperbench"
)

// TestBindFormsAgreeOnCorpus: Bind (bottom-up reduced nodes) and
// BindMaintained (cover-based nodes) give the same Bool, Count and
// EnumerateAll rows on every entry of a degree-2 corpus that plans at width
// ≤ 3 — the canonical query of each hypergraph over a seeded random
// database, dense enough that the cyclic entries have answers. The corpus is
// the repository benchmark's (batch.corpus), or a smaller one under -short.
func TestBindFormsAgreeOnCorpus(t *testing.T) {
	opts := hyperbench.Options{Seed: 5, PerFamily: 6, MaxWidth: 5}
	if testing.Short() {
		opts = hyperbench.Options{Seed: 1, PerFamily: 2, MaxWidth: 3}
	}
	c, err := hyperbench.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := NewEngine(WithMaxWidth(3))
	tuples := map[int]int{1: 300, 2: 60, 3: 14}
	checked := 0
	for i, e := range c.Entries {
		if e.GHW.Upper > 3 {
			continue
		}
		var q cq.Query
		for edge := 0; edge < e.H.NE(); edge++ {
			a := cq.Atom{Rel: fmt.Sprintf("r%d", edge)}
			for _, v := range e.H.EdgeVertices(edge) {
				a.Args = append(a.Args, cq.V(fmt.Sprintf("x%d", v)))
			}
			q.Atoms = append(q.Atoms, a)
		}
		prep, err := eng.Prepare(ctx, q)
		if err != nil {
			continue // the plan came out wider than the bound
		}
		// n random tuples per relation over (n+1)/2 constants, plus three
		// planted solutions, so that the high-arity entries answer too.
		n := tuples[max(1, prep.Plan().Width())]
		rng := rand.New(rand.NewSource(int64(i)))
		db := cq.Database{}
		for _, a := range q.Atoms {
			for k := 0; k < n; k++ {
				row := make([]string, len(a.Args))
				for j := range row {
					row[j] = fmt.Sprint(rng.Intn((n + 1) / 2))
				}
				db.Add(a.Rel, row...)
			}
		}
		for k := 0; k < 3; k++ {
			sol := map[string]string{}
			for _, v := range q.Vars() {
				sol[v] = fmt.Sprint(rng.Intn((n + 1) / 2))
			}
			for _, a := range q.Atoms {
				row := make([]string, len(a.Args))
				for j, arg := range a.Args {
					row[j] = sol[arg.Name]
				}
				db.Add(a.Rel, row...)
			}
		}
		cdb, err := eng.CompileDB(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		oneShot, err := prep.Bind(ctx, cdb)
		if err != nil {
			t.Fatalf("%s: Bind: %v", e.Name, err)
		}
		maintained, err := prep.BindMaintained(ctx, cdb)
		if err != nil {
			t.Fatalf("%s: BindMaintained: %v", e.Name, err)
		}
		if desc := compareBound(ctx, oneShot, maintained); desc != "" {
			t.Errorf("%s (%s): Bind vs BindMaintained: %s", e.Name, q, desc)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no corpus entry planned at width ≤ 3")
	}
	t.Logf("%d corpus entries agree", checked)
}
