package hyperbench

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"d2cq/internal/decomp"
)

var (
	corpusOnce sync.Once
	corpusVal  *Corpus
	corpusErr  error
)

// smallCorpus generates one shared corpus for all tests (generation computes
// ghw for every member, which dominates test time — tens of seconds at
// PerFamily 8). Under -short the corpus shrinks to a few seconds' worth;
// the full-size corpus runs in the non-short CI job.
func smallCorpus(t *testing.T) *Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		per := 8
		if testing.Short() {
			per = 2
		}
		corpusVal, corpusErr = Generate(Options{Seed: 1, PerFamily: per, MaxWidth: 5})
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusVal
}

func TestGenerateDegreeInvariant(t *testing.T) {
	c := smallCorpus(t)
	minEntries := 30
	if testing.Short() {
		minEntries = 8
	}
	if len(c.Entries) < minEntries {
		t.Fatalf("corpus too small: %d", len(c.Entries))
	}
	for _, e := range c.Entries {
		if e.H.MaxDegree() > 2 {
			t.Errorf("%s has degree %d", e.Name, e.H.MaxDegree())
		}
		if e.GHW.Lower > e.GHW.Upper {
			t.Errorf("%s: ghw bounds inverted: %v", e.Name, e.GHW)
		}
		if e.GHW.Upper < 1 {
			t.Errorf("%s: nonsensical ghw %v", e.Name, e.GHW)
		}
	}
}

// TestGenerateDeterministic regenerates a corpus from the same seed and
// requires the same census and the same plans: every entry's bounds and
// witness GHD, and its EvalDecomposition across 10 fresh calls.
func TestGenerateDeterministic(t *testing.T) {
	per := 3
	if testing.Short() {
		per = 1
	}
	a, err := Generate(Options{Seed: 7, PerFamily: per})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Options{Seed: 7, PerFamily: per})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		if x.Name != y.Name || x.GHW.Lower != y.GHW.Lower || x.GHW.Upper != y.GHW.Upper || x.GHW.Exact != y.GHW.Exact {
			t.Fatalf("entry %d differs across identical seeds: %s %v vs %s %v", i, x.Name, x.GHW, y.Name, y.GHW)
		}
		if !reflect.DeepEqual(x.GHW.Decomp, y.GHW.Decomp) {
			t.Errorf("%s: witness GHD differs across identical seeds:\n%v\n%v", x.Name, x.GHW.Decomp, y.GHW.Decomp)
		}
	}
	for _, e := range a.Entries {
		first, err := decomp.EvalDecomposition(context.Background(), e.H, 0)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for run := 1; run < 10; run++ {
			d, err := decomp.EvalDecomposition(context.Background(), e.H, 0)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if !reflect.DeepEqual(d, first) {
				t.Errorf("%s: EvalDecomposition call %d differs from the first:\n%v\n%v", e.Name, run+1, d, first)
				break
			}
		}
	}
}

// TestGenerateMatchesSerial recomputes every entry's census serially, with
// the options Generate uses, and requires the same bounds and witness: the
// worker pool must not change a result.
func TestGenerateMatchesSerial(t *testing.T) {
	opts := Options{Seed: 1, PerFamily: 2, MaxWidth: 5}
	c, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Entries {
		want, err := decomp.GHW(e.H, ghwOptions(opts.MaxWidth))
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if e.GHW.Lower != want.Lower || e.GHW.Upper != want.Upper || e.GHW.Exact != want.Exact {
			t.Errorf("%s: census %v, serial %v", e.Name, e.GHW, want)
		}
		if !reflect.DeepEqual(e.GHW.Decomp, want.Decomp) {
			t.Errorf("%s: census witness differs from the serial one:\n%v\n%v", e.Name, e.GHW.Decomp, want.Decomp)
		}
	}
}

func TestFamilyWidthExpectations(t *testing.T) {
	c := smallCorpus(t)
	for _, e := range c.Entries {
		switch e.Family {
		case "tree-dual":
			// Duals of trees are α-acyclic: ghw = 1.
			if !e.GHW.Exact || e.GHW.Upper != 1 {
				t.Errorf("%s: tree dual ghw = %v, want 1", e.Name, e.GHW)
			}
		case "cycle":
			// Cycle hypergraphs have ghw = 2 (for length ≥ 3... a triangle's
			// dual is a triangle; all cycles here have ghw exactly 2).
			if !e.GHW.Exact || e.GHW.Upper != 2 {
				t.Errorf("%s: cycle ghw = %v, want 2", e.Name, e.GHW)
			}
		case "partial-ktree-dual":
			// ghw ≤ tw(base)+1 ≤ k+1 ≤ 6 always holds by Lemma 4.6.
			if e.GHW.Upper > 6 {
				t.Errorf("%s: ghw upper %d exceeds Lemma 4.6 bound", e.Name, e.GHW.Upper)
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	c := smallCorpus(t)
	rows := c.Table1(5)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Counts are monotone non-increasing in k (as in the paper's Table 1).
	for i := 1; i < len(rows); i++ {
		if rows[i].Upper > rows[i-1].Upper {
			t.Errorf("Table 1 not monotone: k=%d count %d > k=%d count %d",
				rows[i].K, rows[i].Upper, rows[i-1].K, rows[i-1].Upper)
		}
		if rows[i].Definite > rows[i-1].Definite {
			t.Error("definite counts not monotone")
		}
	}
	// Some members are cyclic (ghw > 1) and some are acyclic.
	if rows[0].Upper == 0 {
		t.Error("no cyclic members — corpus unrepresentative")
	}
	if rows[0].Upper == len(c.Entries) {
		t.Error("no acyclic members — corpus unrepresentative")
	}
	// Definite never exceeds Upper.
	for _, r := range rows {
		if r.Definite > r.Upper {
			t.Errorf("k=%d: definite %d > upper %d", r.K, r.Definite, r.Upper)
		}
	}
}

func TestFormatting(t *testing.T) {
	c := smallCorpus(t)
	out := FormatTable1(c.Table1(3), len(c.Entries))
	if !strings.Contains(out, "ghw > k") {
		t.Errorf("missing header: %q", out)
	}
	sum := c.FamilySummary()
	if !strings.Contains(sum, "jigsaw") || !strings.Contains(sum, "tree-dual") {
		t.Errorf("summary missing families:\n%s", sum)
	}
}

func TestJigsawEntriesHaveExpectedWidths(t *testing.T) {
	c := smallCorpus(t)
	for _, e := range c.Entries {
		if e.Family != "jigsaw" {
			continue
		}
		// Jigsaw n×m: ghw between min(n,m) and min(n,m)+1 (balanced
		// separators vs Lemma 4.6).
		if e.GHW.Upper > 5 || e.GHW.Lower < 1 {
			t.Errorf("%s: implausible jigsaw ghw %v", e.Name, e.GHW)
		}
	}
}

func TestCSVExport(t *testing.T) {
	c := smallCorpus(t)
	csv := c.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(c.Entries)+1 {
		t.Fatalf("csv has %d lines for %d entries", len(lines), len(c.Entries))
	}
	if !strings.HasPrefix(lines[0], "name,family,") {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != 6 {
			t.Errorf("malformed row %q", l)
		}
	}
}

func TestHighWidthFamilyPopulatesTail(t *testing.T) {
	c := smallCorpus(t)
	rows := c.Table1(5)
	if rows[4].Upper == 0 {
		t.Error("high-width family should populate the ghw > 5 tail")
	}
}

// BenchmarkGenerateCorpus generates the corpus the batch.corpus workload of
// bench/ builds in its set-up: the census search on every entry, one entry
// per core. Two entries dominate it at about equal cost: the hypertree
// search of bigpkt-1 and the treewidth branch and bound of the 5×5 jigsaw's
// dual; -cpu 1,4 shows the serial and the parallel census.
func BenchmarkGenerateCorpus(b *testing.B) {
	for b.Loop() {
		if _, err := Generate(Options{Seed: 5, PerFamily: 6, MaxWidth: 5}); err != nil {
			b.Fatal(err)
		}
	}
}
