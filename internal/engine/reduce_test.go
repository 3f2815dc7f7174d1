package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// The enumeration runs over the bottom-up reduced nodes B(u), its indexes
// grouping each node's rows by the slots of the bottom-up pass's messages.
// The reference below is what those replace — semijoin passes that hash a
// fresh key set per tree edge, bottom-up and then top-down into the full
// reduction — and a backtracking enumeration that scans every node of the
// full reduction. The nodes must agree with the bottom-up passes and the
// enumeration with the reference row for row, in order: the rows of B(u)
// outside the full reduction never reach a solution.

// refReduceBottomUp semijoins every node with its children, children first.
func refReduceBottomUp(p *Plan, rels []*Relation) {
	for _, u := range p.order {
		for _, cj := range p.childJoins[u] {
			rels[u] = semijoinOn(rels[u], rels[cj.child], cj.shared, cj.uPos, cj.cPos)
		}
	}
}

// refReduceTopDown semijoins every child with its parent, parents first.
func refReduceTopDown(p *Plan, rels []*Relation) {
	for i := len(p.order) - 1; i >= 0; i-- {
		u := p.order[i]
		for _, cj := range p.childJoins[u] {
			rels[cj.child] = semijoinOn(rels[cj.child], rels[u], cj.shared, cj.cPos, cj.uPos)
		}
	}
}

// refEnumerate lists the solutions over the given relations in the
// order of the sequential enumeration: nodes in pre-order, each node's rows
// that agree with what is assigned already, in row order.
func refEnumerate(p *Plan, rels []*Relation) [][]Value {
	pre := slices.Clone(p.order)
	slices.Reverse(pre)
	asg := make([]Value, p.h.NV())
	var out [][]Value
	var rec func(i int)
	rec = func(i int) {
		if i == len(pre) {
			out = append(out, slices.Clone(asg[:len(p.qvars)]))
			return
		}
		u := pre[i]
		for r := 0; r < rels[u].Len(); r++ {
			row := rels[u].Row(r)
			agrees := true
			for j, pos := range p.sharedPos[u] {
				agrees = agrees && row[pos] == asg[p.sharedVids[u][j]]
			}
			if !agrees {
				continue
			}
			for j, vid := range p.bagVids[u] {
				asg[vid] = row[j]
			}
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// sameRelation reports how two relations differ row for row ("" if they
// do not).
func sameRelation(got, want *Relation) string {
	switch {
	case !slices.Equal(got.Cols, want.Cols):
		return fmt.Sprintf("columns %v, want %v", got.Cols, want.Cols)
	case got.Len() != want.Len():
		return fmt.Sprintf("%d rows, want %d", got.Len(), want.Len())
	case !slices.Equal(got.Data, want.Data):
		return "rows differ in content or order"
	}
	return ""
}

// flatten lists a persistent map's keys as a flat relation over cols.
func flatten[V any](m *storage.PMap[V], cols []string) *Relation {
	out := NewRelation(cols...)
	out.Data = make([]Value, 0, m.Len()*len(cols))
	m.Range(func(key []Value, _ V) bool {
		out.addRow(key)
		return true
	})
	return out
}

// boundNodes lists b's node relations B(u): Bind's, or a maintained query's
// in its maps' order.
func boundNodes(b *BoundQuery) []*Relation {
	if b.maint == nil {
		return b.enumSt.rels
	}
	rels := make([]*Relation, len(b.maint.nodes))
	for u, ns := range b.maint.nodes {
		rels[u] = flatten(ns.sup, b.prep.plan.bagVars[u])
	}
	return rels
}

// checkReduction holds b's enumeration to the reference: the bound node
// relations must be the bottom-up reduced ones, and the Enumerate stream must
// be the reference enumeration's over the full reduction (b's engine must
// enumerate in sequential order). A maintained query walks its maps'
// buckets, in an order of their own, so its stream is compared as a sorted
// list.
func checkReduction(t *testing.T, name string, b *BoundQuery) {
	t.Helper()
	ctx := context.Background()
	p := b.prep.plan
	ref := slices.Clone(boundNodes(b))
	refReduceBottomUp(p, ref)
	bu := slices.Clone(ref)
	refReduceTopDown(p, ref)
	for u := range ref {
		if desc := sameRelation(boundNodes(b)[u], bu[u]); desc != "" {
			t.Errorf("%s: node %d bottom-up: %s", name, u, desc)
		}
	}
	var got [][]Value
	err := b.Enumerate(ctx, func(s Solution) bool {
		got = append(got, slices.Clone(s.row))
		return true
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := refEnumerate(p, ref)
	if b.maint != nil {
		slices.SortFunc(got, slices.Compare)
		slices.SortFunc(want, slices.Compare)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: Enumerate yields %d rows, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: Enumerate row %d is %v, reference %v", name, i, got[i], want[i])
		}
	}
}

// TestReductionMatchesSemijoinPasses: on Bind and on its maintained
// successor after a round trip (roundTrip), the bound nodes and the
// slot-grouped enumeration over them give exactly what the semijoin passes
// and a scanning enumeration over the full reduction give. The instances:
// the one-shot benchmark shapes (forced cross-product covers and an acyclic
// path), the incremental differential test's queries over random databases,
// a query in two components (a child sharing no variable with its parent: a
// nullary message) and an unsatisfiable path whose root empties on the way
// up.
func TestReductionMatchesSemijoinPasses(t *testing.T) {
	type instance struct {
		name  string
		query string
		db    cq.Database
	}
	var cases []instance
	for _, c := range []struct {
		shape        maintShape
		rows, domain int
	}{{maintPath3, 300, 150}, {maintCycle5, 200, 100}, {maintSubgrid, 100, 50}, {maintCycle6, 200, 100}} {
		db, _ := c.shape.database(c.rows, c.domain)
		cases = append(cases, instance{c.shape.name, c.shape.query(), db})
	}
	rng := rand.New(rand.NewSource(7))
	for _, sh := range diffShapes {
		db := cq.Database{}
		for rel, arity := range sh.rels {
			for k := 0; k < 40; k++ {
				row := make([]string, arity)
				for j := range row {
					row[j] = fmt.Sprintf("c%d", rng.Intn(6))
				}
				db.Add(rel, row...)
			}
		}
		cases = append(cases, instance{sh.name, sh.query, db})
	}
	twoParts := cq.Database{}
	for _, rel := range []string{"A", "B", "C", "D"} {
		for k := 0; k < 30; k++ {
			twoParts.Add(rel, fmt.Sprint(rng.Intn(8)), fmt.Sprint(rng.Intn(8)))
		}
	}
	cases = append(cases, instance{"two-components", "A(x,y), B(y,z), C(u,v), D(v,w)", twoParts})
	unsat := cq.Database{}
	unsat.Add("R", "1", "2")
	unsat.Add("S", "3", "4")
	unsat.Add("T", "4", "5")
	unsat.Add("T", "6", "7")
	cases = append(cases, instance{"unsat", "R(a,b), S(b,c), T(c,d)", unsat})

	ctx := context.Background()
	eng := NewEngine(WithMaxWidth(3))
	nullary, emptied := false, false
	for _, c := range cases {
		q, err := cq.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := eng.Prepare(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cdb, err := eng.CompileDB(ctx, c.db)
		if err != nil {
			t.Fatal(err)
		}
		p := prep.Plan()
		for u := 0; u < p.d.Nodes(); u++ {
			nullary = nullary || (p.d.Parent[u] >= 0 && len(p.shared[u]) == 0)
		}
		bound, err := prep.Bind(ctx, cdb)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		maintained, err := roundTrip(ctx, bound, c.db)
		if err != nil {
			t.Fatalf("%s: round trip: %v", c.name, err)
		}
		for _, form := range []struct {
			name string
			b    *BoundQuery
		}{{"Bind", bound}, {"maintained", maintained}} {
			name := c.name + "/" + form.name
			checkReduction(t, name, form.b)
			if c.name == "unsat" {
				rels, root := boundNodes(form.b), p.d.Root()
				for u, rel := range rels {
					emptied = emptied || (u != root && rel.Len() > 0 && rels[root].Len() == 0)
				}
			}
		}
	}
	if !nullary || !emptied {
		t.Fatalf("a child sharing no variable with its parent: %v; a root emptied on the way up below a non-empty node: %v", nullary, emptied)
	}
}
