// Package hyperbench is the repository's substitute for the HyperBench
// corpus [Fischl et al., ref 14 of the paper] used in Appendix A / Table 1.
// The real corpus (3649 hypergraphs from CQ and CSP applications, 932 of
// degree 2) is not redistributable here, so we synthesise a corpus of
// degree-2 hypergraphs from the structural families that make up its
// degree-2 slice, with seeded randomness for reproducibility:
//
//   - duals of random graphs of controlled treewidth (random partial
//     k-trees): by Lemma 4.6 their ghw tracks the base treewidth,
//   - jigsaws (duals of grids) of growing dimension: the paper's canonical
//     high-ghw degree-2 family,
//   - duals of trees and forests: the α-acyclic slice,
//   - cycle hypergraphs: the ghw = 2 slice,
//   - duals of subdivided grids: "decorated" high-width instances,
//   - duals of sparse random graphs: a mixed-width background population.
//
// Every generated hypergraph has degree ≤ 2 by construction (the dual of any
// graph has degree ≤ 2: a graph edge belongs to exactly the incidence sets
// of its two endpoints).
package hyperbench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"d2cq/internal/decomp"
	"d2cq/internal/dilution"
	"d2cq/internal/graph"
	"d2cq/internal/hypergraph"
)

// Entry is one corpus member with its provenance and computed width data.
type Entry struct {
	Name   string
	Family string
	H      *hypergraph.Hypergraph
	GHW    decomp.GHWResult
}

// Corpus is a generated collection of degree-2 hypergraphs.
type Corpus struct {
	Entries []Entry
}

// Options controls corpus generation.
type Options struct {
	Seed int64
	// PerFamily scales how many instances each parameterised family
	// contributes (default 24).
	PerFamily int
	// MaxWidth caps the ghw computation effort (default 6: Table 1 needs
	// thresholds up to ghw > 5).
	MaxWidth int
}

// Generate builds the corpus and computes ghw data for every member. The
// hypergraphs come from the seeded generator in corpus order; the ghw census
// then runs one entry per core (see census). Every search is deterministic,
// so the corpus is the same on any number of cores.
func Generate(opts Options) (*Corpus, error) {
	if opts.PerFamily == 0 {
		opts.PerFamily = 24
	}
	if opts.MaxWidth == 0 {
		opts.MaxWidth = 6
	}
	r := rand.New(rand.NewSource(opts.Seed))
	c := &Corpus{}
	add := func(family, name string, h *hypergraph.Hypergraph) error {
		if h.MaxDegree() > 2 {
			return fmt.Errorf("hyperbench: %s has degree %d", name, h.MaxDegree())
		}
		if h.NE() == 0 {
			return nil
		}
		c.Entries = append(c.Entries, Entry{Name: name, Family: family, H: h})
		return nil
	}

	// Family 1: duals of random partial k-trees, k = 1..5.
	for i := 0; i < opts.PerFamily*2; i++ {
		k := 1 + r.Intn(5)
		n := k + 2 + r.Intn(8)
		g := randomPartialKTree(r, n, k)
		if err := add("partial-ktree-dual", fmt.Sprintf("pkt-%d(k=%d;n=%d)", i, k, n), hypergraph.FromGraph(g).Dual()); err != nil {
			return nil, err
		}
	}
	// Family 2: jigsaws.
	dims := [][2]int{{1, 3}, {1, 4}, {2, 2}, {2, 3}, {2, 4}, {3, 3}, {2, 5}, {3, 4}}
	for i := 0; i < opts.PerFamily/2; i++ {
		d := dims[i%len(dims)]
		if err := add("jigsaw", fmt.Sprintf("jigsaw-%dx%d-%d", d[0], d[1], i), dilution.Jigsaw(d[0], d[1])); err != nil {
			return nil, err
		}
	}
	// Family 3: duals of random trees (α-acyclic).
	for i := 0; i < opts.PerFamily; i++ {
		n := 3 + r.Intn(10)
		g := randomTree(r, n)
		if err := add("tree-dual", fmt.Sprintf("tree-%d(n=%d)", i, n), hypergraph.FromGraph(g).Dual()); err != nil {
			return nil, err
		}
	}
	// Family 4: cycle hypergraphs.
	for i := 0; i < opts.PerFamily/2; i++ {
		n := 3 + r.Intn(10)
		if err := add("cycle", fmt.Sprintf("cycle-%d(n=%d)", i, n), hypergraph.FromGraph(graph.Cycle(n)).Dual()); err != nil {
			return nil, err
		}
	}
	// Family 5: duals of subdivided grids (decorated high-width).
	for i := 0; i < opts.PerFamily/3; i++ {
		n := 2 + i%2
		m := 2 + (i/2)%2
		g := graph.Subdivide(graph.Grid(n, m))
		if err := add("subdivided-grid-dual", fmt.Sprintf("subgrid-%dx%d-%d", n, m, i), hypergraph.FromGraph(g).Dual()); err != nil {
			return nil, err
		}
	}
	// Family 6: duals of sparse random graphs.
	for i := 0; i < opts.PerFamily*2; i++ {
		n := 4 + r.Intn(8)
		g := graph.New(n)
		m := n + r.Intn(n)
		for j := 0; j < m; j++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		if err := add("random-dual", fmt.Sprintf("rand-%d(n=%d;m=%d)", i, n, m), hypergraph.FromGraph(g).Dual()); err != nil {
			return nil, err
		}
	}
	// Family 7: the high-ghw tail HyperBench's degree-2 slice is known for
	// (≈ 40% of its degree-2 instances have ghw > 5): large jigsaws, dense
	// partial k-trees, and duals of complete graphs.
	for i := 0; i < opts.PerFamily/3; i++ {
		n := 4 + i%2
		if err := add("high-width", fmt.Sprintf("bigjigsaw-%dx%d-%d", n, n, i), dilution.Jigsaw(n, n)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < opts.PerFamily/2; i++ {
		k := 6 + r.Intn(2)
		n := k + 3 + r.Intn(6)
		g := randomPartialKTree(r, n, k)
		if err := add("high-width", fmt.Sprintf("bigpkt-%d(k=%d;n=%d)", i, k, n), hypergraph.FromGraph(g).Dual()); err != nil {
			return nil, err
		}
	}
	for i := 0; i < opts.PerFamily/4; i++ {
		n := 7 + i%3
		if err := add("high-width", fmt.Sprintf("complete-dual-K%d-%d", n, i), hypergraph.FromGraph(graph.Complete(n)).Dual()); err != nil {
			return nil, err
		}
	}
	if err := census(c.Entries, ghwOptions(opts.MaxWidth)); err != nil {
		return nil, err
	}
	return c, nil
}

// ghwOptions are the census's search options for a corpus of the given
// MaxWidth.
func ghwOptions(maxWidth int) *decomp.GHWOptions {
	return &decomp.GHWOptions{
		MaxWidth:             maxWidth + 1,
		ExactSearchEdgeLimit: 12,
		HWEdgeLimit:          14,
		Budget:               150_000,
	}
}

// census computes every entry's GHW on GOMAXPROCS workers, each result into
// its own entry. Workers take entries from the end of the corpus: the
// high-width family comes last and holds the longest searches, so they start
// first. An error names the first failing entry in corpus order.
func census(entries []Entry, opts *decomp.GHWOptions) error {
	errs := make([]error, len(entries))
	var next atomic.Int64
	next.Store(int64(len(entries)))
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(entries)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(-1); i >= 0; i = next.Add(-1) {
				entries[i].GHW, errs[i] = decomp.GHW(entries[i].H, opts)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("hyperbench: %s: %w", entries[i].Name, err)
		}
	}
	return nil
}

// CSV renders the corpus as comma-separated rows for external analysis:
// name, family, vertices, edges, ghw lower, ghw upper, exact.
func (c *Corpus) CSV() string {
	s := "name,family,nv,ne,ghw_lower,ghw_upper,exact\n"
	for _, e := range c.Entries {
		s += fmt.Sprintf("%s,%s,%d,%d,%d,%d,%v\n",
			e.Name, e.Family, e.H.NV(), e.H.NE(), e.GHW.Lower, e.GHW.Upper, e.GHW.Exact)
	}
	return s
}

// randomPartialKTree builds a random subgraph of a random k-tree on n
// vertices (treewidth ≤ k), keeping it connected-ish by retaining a spanning
// fraction of edges.
func randomPartialKTree(r *rand.Rand, n, k int) *graph.Graph {
	g := graph.New(n)
	if n <= k+1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.AddEdge(u, v)
			}
		}
		return g
	}
	// Build a k-tree: start with a (k+1)-clique, then attach each new vertex
	// to a random k-clique (approximated by k members of a random existing
	// clique bag).
	bags := [][]int{}
	first := make([]int, k+1)
	for i := range first {
		first[i] = i
		for j := i + 1; j <= k; j++ {
			g.AddEdge(i, j)
		}
	}
	bags = append(bags, first)
	for v := k + 1; v < n; v++ {
		bag := bags[r.Intn(len(bags))]
		// Choose k members of the bag.
		perm := r.Perm(len(bag))[:k]
		newBag := make([]int, 0, k+1)
		for _, idx := range perm {
			g.AddEdge(v, bag[idx])
			newBag = append(newBag, bag[idx])
		}
		newBag = append(newBag, v)
		bags = append(bags, newBag)
	}
	// Drop ~20% of edges to get a partial k-tree.
	for _, e := range g.Edges() {
		if r.Float64() < 0.2 {
			g.RemoveEdge(e[0], e[1])
		}
	}
	return g
}

// randomTree builds a uniform-ish random tree on n vertices (random parent
// attachment).
func randomTree(r *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, r.Intn(v))
	}
	return g
}

// Table1Row is one row of the reproduced Table 1.
type Table1Row struct {
	K int
	// Definite counts hypergraphs whose ghw lower bound exceeds K.
	Definite int
	// Upper counts hypergraphs whose ghw upper bound exceeds K (the value
	// reported in the table; for exact entries Definite == Upper).
	Upper int
}

// Table1 reproduces the shape of the paper's Table 1: the number of degree-2
// hypergraphs with ghw > k, for k = 1..maxK. When a member's ghw is known
// only within bounds, the Upper column uses the upper bound (matching
// HyperBench's reporting convention) and Definite the lower bound.
func (c *Corpus) Table1(maxK int) []Table1Row {
	rows := make([]Table1Row, maxK)
	for i := range rows {
		rows[i].K = i + 1
	}
	for _, e := range c.Entries {
		for i := range rows {
			k := rows[i].K
			if e.GHW.Lower > k {
				rows[i].Definite++
			}
			if e.GHW.Upper > k {
				rows[i].Upper++
			}
		}
	}
	return rows
}

// FormatTable1 renders the table like the paper's Table 1.
func FormatTable1(rows []Table1Row, total int) string {
	s := fmt.Sprintf("Degree-2 hypergraphs in corpus: %d\n", total)
	s += "k   #(ghw > k)   [definite lower-bound count]\n"
	for _, row := range rows {
		s += fmt.Sprintf("%-3d %-12d [%d]\n", row.K, row.Upper, row.Definite)
	}
	return s
}

// FamilySummary reports per-family counts and width ranges (for README and
// EXPERIMENTS documentation).
func (c *Corpus) FamilySummary() string {
	type agg struct {
		n, minW, maxW, exact int
	}
	byFam := map[string]*agg{}
	var fams []string
	for _, e := range c.Entries {
		a := byFam[e.Family]
		if a == nil {
			a = &agg{minW: 1 << 30}
			byFam[e.Family] = a
			fams = append(fams, e.Family)
		}
		a.n++
		if e.GHW.Upper < a.minW {
			a.minW = e.GHW.Upper
		}
		if e.GHW.Upper > a.maxW {
			a.maxW = e.GHW.Upper
		}
		if e.GHW.Exact {
			a.exact++
		}
	}
	sort.Strings(fams)
	s := "family                 count  ghw(min..max)  exact\n"
	for _, f := range fams {
		a := byFam[f]
		s += fmt.Sprintf("%-22s %-6d %d..%-10d %d\n", f, a.n, a.minW, a.maxW, a.exact)
	}
	return s
}
