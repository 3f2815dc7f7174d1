// Command hyperbench generates the HyperBench-substitute corpus of degree-2
// hypergraphs and prints the reproduction of the paper's Table 1 together
// with a per-family summary.
//
// Usage:
//
//	hyperbench [-seed 1] [-per 24] [-maxk 5] [-csv out.csv] [-evalwidth k] [-json]
//
// With -json the run emits one machine-readable report (generation and
// evaluation timings, Table 1 rows, engine/cache statistics) instead of the
// human tables. Performance is measured by the benchmark harness in bench/
// and by the go test -bench microbenchmarks, not here.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"d2cq"
	"d2cq/internal/hyperbench"
	"d2cq/internal/reduction"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hyperbench:", err)
		os.Exit(1)
	}
}

// report is the -json output: everything a trajectory recorder needs to
// compare runs (inputs, sizes, timings, cache behaviour).
type report struct {
	Seed      int64                  `json:"seed"`
	PerFamily int                    `json:"per_family"`
	MaxK      int                    `json:"max_k"`
	Entries   int                    `json:"entries"`
	GenMS     float64                `json:"generate_ms"`
	Table1    []hyperbench.Table1Row `json:"table1"`
	Eval      *evalReport            `json:"eval,omitempty"`
}

type evalReport struct {
	MaxWidth    int     `json:"max_width"`
	Sat         int     `json:"sat"`
	Unsat       int     `json:"unsat"`
	Naive       int     `json:"naive_fallback"`
	EvalMS      float64 `json:"eval_ms"`
	Prepares    uint64  `json:"prepares"`
	Decomps     uint64  `json:"decomps_computed"`
	DBCompiles  uint64  `json:"db_compiles"`
	Binds       uint64  `json:"binds"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hyperbench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "corpus seed")
	per := fs.Int("per", 24, "instances per family scale factor")
	maxk := fs.Int("maxk", 5, "largest k for the ghw > k table")
	csv := fs.String("csv", "", "also write the per-instance census to this CSV file")
	evalWidth := fs.Int("evalwidth", 0, "also prepare & evaluate the canonical BCQ of every corpus entry up to this plan width (0 = skip)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report instead of the human tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	genStart := time.Now()
	c, err := hyperbench.Generate(hyperbench.Options{Seed: *seed, PerFamily: *per, MaxWidth: *maxk})
	if err != nil {
		return err
	}
	genMS := float64(time.Since(genStart).Microseconds()) / 1000
	if *csv != "" {
		if err := os.WriteFile(*csv, []byte(c.CSV()), 0o644); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintf(out, "wrote %s\n", *csv)
		}
	}
	if *jsonOut {
		rep := report{
			Seed:      *seed,
			PerFamily: *per,
			MaxK:      *maxk,
			Entries:   len(c.Entries),
			GenMS:     genMS,
			Table1:    c.Table1(*maxk),
		}
		if *evalWidth > 0 {
			ev, err := evalCorpus(io.Discard, c, *evalWidth, false)
			if err != nil {
				return err
			}
			rep.Eval = ev
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintln(out, "=== Table 1 (reproduced shape): degree-2 hypergraphs with ghw > k ===")
	fmt.Fprint(out, hyperbench.FormatTable1(c.Table1(*maxk), len(c.Entries)))
	fmt.Fprintln(out)
	fmt.Fprintln(out, "=== corpus composition ===")
	fmt.Fprint(out, c.FamilySummary())
	if *evalWidth > 0 {
		if _, err := evalCorpus(out, c, *evalWidth, true); err != nil {
			return err
		}
	}
	return nil
}

// evalCorpus prepares the canonical BCQ of every corpus entry with one
// shared engine, compiles each entry's canonical database once, binds, and
// evaluates the bound query; an entry past maxWidth is decided by the naive
// backtracking baseline instead.
// Structurally repeated entries hit the decomposition cache, which the
// stats make visible.
func evalCorpus(out io.Writer, c *hyperbench.Corpus, maxWidth int, human bool) (*evalReport, error) {
	ctx := context.Background()
	eng := d2cq.NewEngine(d2cq.WithMaxWidth(maxWidth))
	if human {
		fmt.Fprintf(out, "\n=== canonical BCQ evaluation (shared engine, max width %d) ===\n", maxWidth)
	}
	start := time.Now()
	sat, unsat, naive := 0, 0, 0
	for _, e := range c.Entries {
		inst := reduction.NewInstance(e.H)
		// A tiny canonical database: two tuples per edge relation.
		for ei := 0; ei < e.H.NE(); ei++ {
			cols := len(e.H.EdgeVertexNames(ei))
			for t := 0; t < 2; t++ {
				row := make([]string, cols)
				for cix := range row {
					row[cix] = fmt.Sprintf("c%d", (t+cix)%2)
				}
				inst.D.Add(e.H.EdgeName(ei), row...)
			}
		}
		ok, err := evalEntry(ctx, eng, inst.Q, inst.D)
		if errors.Is(err, d2cq.ErrWidthExceeded) {
			naive++
			ok, err = d2cq.NaiveBCQ(inst.Q, inst.D)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		if ok {
			sat++
		} else {
			unsat++
		}
	}
	evalMS := float64(time.Since(start).Microseconds()) / 1000
	st := eng.Stats()
	if human {
		fmt.Fprintf(out, "evaluated %d entries: %d satisfiable, %d unsatisfiable, %d via naive fallback\n",
			len(c.Entries), sat, unsat, naive)
		fmt.Fprintf(out, "engine: %s\n", st)
	}
	return &evalReport{
		MaxWidth:    maxWidth,
		Sat:         sat,
		Unsat:       unsat,
		Naive:       naive,
		EvalMS:      evalMS,
		Prepares:    st.Prepares,
		Decomps:     st.DecompsComputed,
		DBCompiles:  st.DBCompiles,
		Binds:       st.Binds,
		CacheHits:   st.Cache.Hits,
		CacheMisses: st.Cache.Misses,
	}, nil
}

// evalEntry decides q over db: Prepare on eng, CompileDB, Bind and Bool.
func evalEntry(ctx context.Context, eng *d2cq.Engine, q d2cq.Query, db d2cq.Database) (bool, error) {
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		return false, err
	}
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		return false, err
	}
	bound, err := prep.Bind(ctx, cdb)
	if err != nil {
		return false, err
	}
	return bound.Bool(ctx)
}
