// Benchmarks regenerating every table and figure of the paper, plus the
// measured experiments of DESIGN.md §3. Run with:
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records representative outputs against the paper's claims.
package d2cq

import (
	"context"
	"fmt"
	"testing"

	"d2cq/internal/decomp"
	"d2cq/internal/dilution"
	"d2cq/internal/engine"
	"d2cq/internal/graph"
	"d2cq/internal/hyperbench"
	"d2cq/internal/hypergraph"
	"d2cq/internal/reduction"
)

// BenchmarkTable1 regenerates the shape of Table 1 (number of degree-2
// hypergraphs with ghw > k) over the seeded HyperBench-substitute corpus.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := hyperbench.Generate(hyperbench.Options{Seed: 1, PerFamily: 4, MaxWidth: 5})
		if err != nil {
			b.Fatal(err)
		}
		rows := c.Table1(5)
		if rows[0].Upper == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure1 exercises the contraction-vs-merging contrast of
// Figure 1: one Adler contraction and one dilution merge on the example.
func BenchmarkFigure1(b *testing.B) {
	h, x, y := dilution.Figure1Example()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dilution.ContractVertices(h, x, y); err != nil {
			b.Fatal(err)
		}
		if _, err := dilution.Apply(h, dilution.Op{Kind: dilution.Merge, Vertex: y}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 reproduces the Figure 2 dilution: from a decorated
// degree-2 host to the 3×2-jigsaw via Lemma 4.4 (merges, then deletions).
func BenchmarkFigure2(b *testing.B) {
	host := dilution.GridDual(graph.Subdivide(graph.Grid(3, 2))).Reduce()
	dual, err := host.DualGraph()
	if err != nil {
		b.Fatal(err)
	}
	g := graph.Grid(3, 2)
	mu, err := graph.FindMinor(g, dual, nil)
	if err != nil || mu == nil {
		b.Fatal("no grid minor in host dual")
	}
	if err := mu.ExtendOnto(dual); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, got, err := dilution.MinorToDilution(host, g, mu)
		if err != nil {
			b.Fatal(err)
		}
		if n, m, ok := dilution.IsJigsaw(got); !ok || n*m != 6 {
			b.Fatal("did not reach the 3×2 jigsaw")
		}
	}
}

// BenchmarkFigure3 builds and recognises the 3×4-jigsaw of Figure 3.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		j := dilution.Jigsaw(3, 4)
		if n, m, ok := dilution.IsJigsaw(j); !ok || n != 3 || m != 4 {
			b.Fatal("jigsaw recognition failed")
		}
	}
}

// BenchmarkFigure4 builds the degree-2 pre-jigsaw of the Figure 4 /
// Appendix D construction, verifies the Definition 5.1 witness, and merges
// it back to the jigsaw.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, w, mergeSeq := dilution.SplitJigsaw(3, 3)
		if err := dilution.VerifyPreJigsaw(h, w); err != nil {
			b.Fatal(err)
		}
		if _, got, err := dilution.ApplySequence(h, mergeSeq); err != nil {
			b.Fatal(err)
		} else if _, _, ok := dilution.IsJigsaw(got); !ok {
			b.Fatal("merge did not reach jigsaw")
		}
	}
}

// BenchmarkTheorem47Pipeline runs the full Excluded-Grid-analogue pipeline:
// reduce → dual → grid minor → jigsaw dilution (E1).
func BenchmarkTheorem47Pipeline(b *testing.B) {
	host := dilution.GridDual(graph.Subdivide(graph.Grid(2, 2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq, _, err := dilution.ExtractJigsaw(host, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		if seq == nil {
			b.Fatal("no jigsaw found")
		}
	}
}

// BenchmarkReductionBlowup measures the Theorem 3.4 reduction's database
// growth across dilution sequence lengths ℓ (E2: ∥D∥ = O(degree^ℓ)·∥D∥).
func BenchmarkReductionBlowup(b *testing.B) {
	base := dilution.Jigsaw(2, 4)
	fullSeq, err := dilution.JigsawShrinkSequence(2, 4)
	if err != nil {
		b.Fatal(err)
	}
	for l := 1; l <= len(fullSeq); l++ {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			steps, final, err := dilution.ApplySequence(base, fullSeq[:l])
			if err != nil {
				b.Fatal(err)
			}
			inst := reduction.NewInstance(final)
			for e := 0; e < final.NE(); e++ {
				cols := len(final.EdgeVertexNames(e))
				for t := 0; t < 4; t++ {
					row := make([]string, cols)
					for c := range row {
						row[c] = fmt.Sprintf("c%d", (t+c)%3)
					}
					inst.D.Add(final.EdgeName(e), row...)
				}
			}
			b.ResetTimer()
			var size int
			for i := 0; i < b.N; i++ {
				red, err := reduction.ReverseDilution(steps, inst)
				if err != nil {
					b.Fatal(err)
				}
				size = red.D.Size()
			}
			b.ReportMetric(float64(size), "dbsize")
		})
	}
}

// BenchmarkBCQJigsaw measures the dichotomy (E3): GHD-based evaluation vs
// the naive baseline on jigsaw queries of growing dimension (= growing ghw).
func BenchmarkBCQJigsaw(b *testing.B) {
	for _, k := range []int{2, 3} {
		// Satisfiable instance: a complete graph.
		g := graph.Complete(k + 2)
		inst, err := reduction.CliqueToJigsaw(g, k)
		if err != nil {
			b.Fatal(err)
		}
		// Unsatisfiable instance for k=3: complete bipartite graphs are
		// triangle-free, so the baseline has to exhaust its search space.
		bip := graph.New(12)
		for u := 0; u < 6; u++ {
			for v := 6; v < 12; v++ {
				bip.AddEdge(u, v)
			}
		}
		unsat, err := reduction.CliqueToJigsaw(bip, 3)
		if err != nil {
			b.Fatal(err)
		}
		if k == 3 {
			b.Run("GHD/k=3-unsat", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ok, err := unsat.BCQ()
					if err != nil || ok {
						b.Fatal("bipartite graph must have no triangle")
					}
				}
			})
			b.Run("Naive/k=3-unsat", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ok, err := NaiveBCQ(unsat.Q, unsat.D)
					if err != nil || ok {
						b.Fatal("bipartite graph must have no triangle")
					}
				}
			})
		}
		b.Run(fmt.Sprintf("GHD/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := inst.BCQ()
				if err != nil || !ok {
					b.Fatal("evaluation failed")
				}
			}
		})
		b.Run(fmt.Sprintf("Naive/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := NaiveBCQ(inst.Q, inst.D)
				if err != nil || !ok {
					b.Fatal("evaluation failed")
				}
			}
		})
	}
}

// BenchmarkBCQBoundedGHW shows the tractable side (Proposition 2.2): cycle
// queries have ghw 2 for every length, and evaluation scales smoothly.
func BenchmarkBCQBoundedGHW(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		q := Query{}
		db := Database{}
		for i := 0; i < n; i++ {
			rel := fmt.Sprintf("E%d", i)
			q.Atoms = append(q.Atoms, Atom{Rel: rel, Args: []Term{
				Var(fmt.Sprintf("x%d", i)), Var(fmt.Sprintf("x%d", (i+1)%n)),
			}})
			// A 4-cycle on the domain plus identity loops: closed walks of
			// every length n exist, so all cycle queries are satisfiable.
			for v := 0; v < 12; v++ {
				db.Add(rel, fmt.Sprintf("c%d", v), fmt.Sprintf("c%d", (v+1)%4))
				db.Add(rel, fmt.Sprintf("c%d", v), fmt.Sprintf("c%d", v))
			}
		}
		prep, err := Prepare(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := prep.Bool(context.Background(), db)
				if err != nil || !ok {
					b.Fatal("cycle query should be satisfiable")
				}
			}
		})
	}
}

// BenchmarkCountCQ measures #CQ over join trees (E4 / Proposition 4.14).
func BenchmarkCountCQ(b *testing.B) {
	q := Query{}
	db := Database{}
	for i := 0; i < 6; i++ {
		rel := fmt.Sprintf("R%d", i)
		q.Atoms = append(q.Atoms, Atom{Rel: rel, Args: []Term{
			Var(fmt.Sprintf("x%d", i)), Var(fmt.Sprintf("x%d", i+1)),
		}})
		for v := 0; v < 20; v++ {
			db.Add(rel, fmt.Sprintf("c%d", v%5), fmt.Sprintf("c%d", (v+i)%5))
		}
	}
	prep, err := Prepare(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.Count(context.Background(), db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDilutionDecide measures the Theorem 3.5 decision procedure (E5).
func BenchmarkDilutionDecide(b *testing.B) {
	h := dilution.Jigsaw(2, 3)
	st, err := dilution.Apply(h, dilution.Op{Kind: dilution.Merge, Vertex: "h1,1"})
	if err != nil {
		b.Fatal(err)
	}
	target := st.After
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := dilution.Decide(h, target, nil)
		if err != nil || !ok {
			b.Fatal("decision failed")
		}
	}
}

// BenchmarkLemma46 measures the constructive GHD-from-dual-TD bound (E6).
func BenchmarkLemma46(b *testing.B) {
	hs := []*hypergraph.Hypergraph{
		dilution.Jigsaw(3, 3),
		dilution.Jigsaw(3, 4),
		dilution.GridDual(graph.Subdivide(graph.Grid(2, 3))).Reduce(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range hs {
			d, err := decomp.GHDFromDualTD(h)
			if err != nil {
				b.Fatal(err)
			}
			if d.Width() < 2 {
				b.Fatal("implausible width")
			}
		}
	}
}

// BenchmarkCliqueToJigsaw measures the hardness-witness compilation (E7).
func BenchmarkCliqueToJigsaw(b *testing.B) {
	g := graph.Complete(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := reduction.CliqueToJigsaw(g, 3)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := inst.BCQ()
		if err != nil || !ok {
			b.Fatal("K6 contains a 3-clique")
		}
	}
}

// BenchmarkAblationGHW isolates the design choices of the ghw computation
// (DESIGN.md §5): the balanced-separator lower bound (which also lets the
// hw search start above the guaranteed-failure widths), the hw upper-bound
// search, and the exact generalized-bag search.
func BenchmarkAblationGHW(b *testing.B) {
	hosts := []*hypergraph.Hypergraph{
		dilution.Jigsaw(3, 3),
		dilution.Jigsaw(2, 4),
		dilution.GridDual(graph.Subdivide(graph.Grid(2, 3))).Reduce(),
	}
	variants := []struct {
		name string
		opts decomp.GHWOptions
	}{
		{"full", decomp.GHWOptions{}},
		{"no-separator-lb", decomp.GHWOptions{SkipSeparatorLB: true}},
		{"no-hw-search", decomp.GHWOptions{HWEdgeLimit: 1}},
		{"no-exact-search", decomp.GHWOptions{SkipExactSearch: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			gap := 0
			for i := 0; i < b.N; i++ {
				gap = 0
				for _, h := range hosts {
					res, err := decomp.GHW(h, &v.opts)
					if err != nil {
						b.Fatal(err)
					}
					gap += res.Upper - res.Lower
				}
			}
			b.ReportMetric(float64(gap), "bound-gap")
		})
	}
}

// BenchmarkEnumerationEngines compares solution enumeration through the
// decomposition engine against the naive engine on a medium workload.
func BenchmarkEnumerationEngines(b *testing.B) {
	q, err := ParseQuery("R(x,y), S(y,z), T(z,w)")
	if err != nil {
		b.Fatal(err)
	}
	db := Database{}
	for i := 0; i < 30; i++ {
		db.Add("R", fmt.Sprintf("a%d", i%6), fmt.Sprintf("b%d", i%5))
		db.Add("S", fmt.Sprintf("b%d", i%5), fmt.Sprintf("c%d", i%4))
		db.Add("T", fmt.Sprintf("c%d", i%4), fmt.Sprintf("d%d", i%3))
	}
	ctx := context.Background()
	prep, err := Prepare(ctx, q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("GHD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := prep.EnumerateAll(ctx, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GHD-streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			if err := prep.Enumerate(ctx, db, func(Solution) bool { n++; return true }); err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				b.Fatal("no solutions")
			}
		}
	})
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.NaiveEnumerate(q, db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPreparedVsAdHoc demonstrates the compile-once speedup of the
// prepared-query API: the ad-hoc path recomputes the decomposition on every
// call, the prepared path pays for it once, and repeated evaluation over a
// corpus query amortises it away (the ISSUE's ≥2× criterion; in practice
// the gap is orders of magnitude on cyclic queries).
func BenchmarkPreparedVsAdHoc(b *testing.B) {
	c, err := GenerateCorpus(CorpusOptions{Seed: 7, PerFamily: 2, MaxWidth: 3})
	if err != nil {
		b.Fatal(err)
	}
	// Pick the corpus entry with the widest hypergraph that stays cheap to
	// decompose: a cyclic degree-2 instance, so decomposition search is the
	// dominant per-call cost the prepared path eliminates.
	var h *Hypergraph
	for _, e := range c.Entries {
		if e.GHW.Lower >= 2 && (h == nil || e.H.NE() < h.NE()) {
			h = e.H
		}
	}
	if h == nil {
		b.Fatal("corpus has no cyclic entry")
	}
	q := CanonicalQuery(h)
	inst := NewInstance(h)
	// A small canonical database with a few tuples per edge relation.
	for e := 0; e < h.NE(); e++ {
		cols := len(h.EdgeVertexNames(e))
		for t := 0; t < 3; t++ {
			row := make([]string, cols)
			for cix := range row {
				row[cix] = fmt.Sprintf("c%d", (t+cix)%2)
			}
			inst.D.Add(h.EdgeName(e), row...)
		}
	}
	ctx := context.Background()
	b.Run("AdHoc", func(b *testing.B) {
		eng := NewEngine(WithDecompCache(0)) // no cache: recompile per call
		for i := 0; i < b.N; i++ {
			prep, err := eng.Prepare(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := prep.Bool(ctx, inst.D); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Prepared", func(b *testing.B) {
		eng := NewEngine()
		prep, err := eng.Prepare(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Bool(ctx, inst.D); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBoundVsUnbound demonstrates the compile-once speedup on the data
// side: the unbound path (PreparedQuery's Database methods) compiles the
// relations the query reads and binds the query to them on every call, the
// bound path pays for both once at CompileDB/Bind time and each evaluation
// runs only the per-call passes over the shared interned, indexed state.
func BenchmarkBoundVsUnbound(b *testing.B) {
	// A 6-cycle query (ghw 2, cyclic) over a database with enough tuples
	// that the data-side compilation is the dominant per-call cost.
	q := Query{}
	db := Database{}
	n, dom := 6, 24
	for i := 0; i < n; i++ {
		rel := fmt.Sprintf("E%d", i)
		q.Atoms = append(q.Atoms, Atom{Rel: rel, Args: []Term{
			Var(fmt.Sprintf("x%d", i)), Var(fmt.Sprintf("x%d", (i+1)%n)),
		}})
		for a := 0; a < dom; a++ {
			db.Add(rel, fmt.Sprintf("c%d", a), fmt.Sprintf("c%d", (a+1)%dom))
			db.Add(rel, fmt.Sprintf("c%d", a), fmt.Sprintf("c%d", (a*7)%dom))
		}
	}
	ctx := context.Background()
	eng := NewEngine()
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Unbound", func(b *testing.B) {
		// The plan is prepared; every call still compiles and binds.
		for i := 0; i < b.N; i++ {
			if _, err := prep.Bool(ctx, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Bound", func(b *testing.B) {
		cdb, err := eng.CompileDB(ctx, db)
		if err != nil {
			b.Fatal(err)
		}
		bound, err := prep.Bind(ctx, cdb)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bound.Bool(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Bound/Count", func(b *testing.B) {
		cdb, err := eng.CompileDB(ctx, db)
		if err != nil {
			b.Fatal(err)
		}
		bound, err := prep.Bind(ctx, cdb)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bound.Count(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
