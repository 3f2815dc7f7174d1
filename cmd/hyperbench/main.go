// Command hyperbench generates the HyperBench-substitute corpus of degree-2
// hypergraphs and prints the reproduction of the paper's Table 1 together
// with a per-family summary.
//
// Usage:
//
//	hyperbench [-seed 1] [-per 24] [-maxk 5] [-csv out.csv] [-evalwidth k] [-updates n] [-parallel 1,2,4] [-json]
//
// With -json the run emits one machine-readable report (generation and
// evaluation timings, Table 1 rows, engine/cache statistics) instead of the
// human tables, so benchmark trajectories can be recorded across runs.
//
// With -updates n the run additionally benchmarks incremental maintenance:
// for a sample of corpus entries it binds the canonical BCQ over a larger
// generated database and then, for n rounds of single-tuple deltas, times
// BoundQuery.Update against a from-scratch CompileDB+Bind of the same
// logical database, spot-checking that both agree.
//
// With -parallel a,b,... the run sweeps WithParallelism over the given
// worker counts on a sample of corpus entries, timing Bind, the counting DP
// (first Count) and EnumerateAll per level and reporting speedups against
// the sequential level. Results across levels are cross-checked against a
// sequential scout pass. num_cpu/gomaxprocs are recorded alongside — on a
// single-CPU host the sweep measures overhead, not speedup.
//
// With -coalesce k the run benchmarks batched ingestion: the same stream of
// single-tuple deltas (as many rounds as -updates, default 64) is applied
// once as one Update per delta and once as one Update per Delta.Merge batch
// of k, timing both, reporting the engine Rebind counts, and cross-checking
// that the two paths land on identical results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
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
	Updates   *updatesReport         `json:"updates,omitempty"`
	Parallel  *parallelReport        `json:"parallel,omitempty"`
	Coalesce  *coalesceReport        `json:"coalesce,omitempty"`
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
	updates := fs.Int("updates", 0, "also benchmark incremental maintenance: time this many single-tuple update rounds per sampled entry, Update vs CompileDB+Bind (0 = skip)")
	coalesce := fs.Int("coalesce", 0, "also benchmark coalesced ingestion: apply the single-tuple delta stream (as many rounds as -updates, default 64) once per delta and once per Delta.Merge batch of this size (0 = skip)")
	parallel := fs.String("parallel", "", "also sweep WithParallelism over these comma-separated worker counts (e.g. 1,2,4,8), timing Bind, Count and EnumerateAll per level (empty = skip)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report instead of the human tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	levels, err := parseParallelLevels(*parallel)
	if err != nil {
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
		if *updates > 0 {
			up, err := updatesBench(io.Discard, c, *updates, false)
			if err != nil {
				return err
			}
			rep.Updates = up
		}
		if len(levels) > 0 {
			pr, err := parallelBench(io.Discard, c, levels, false)
			if err != nil {
				return err
			}
			rep.Parallel = pr
		}
		if *coalesce > 0 {
			cr, err := coalesceBench(io.Discard, c, coalesceRounds(*updates), *coalesce, false)
			if err != nil {
				return err
			}
			rep.Coalesce = cr
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
	if *updates > 0 {
		if _, err := updatesBench(out, c, *updates, true); err != nil {
			return err
		}
	}
	if len(levels) > 0 {
		if _, err := parallelBench(out, c, levels, true); err != nil {
			return err
		}
	}
	if *coalesce > 0 {
		if _, err := coalesceBench(out, c, coalesceRounds(*updates), *coalesce, true); err != nil {
			return err
		}
	}
	return nil
}

// coalesceRounds derives the delta-stream length of the coalesce benchmark
// from the -updates flag (its default when -updates is off).
func coalesceRounds(updates int) int {
	if updates > 0 {
		return updates
	}
	return 64
}

// parseParallelLevels parses the -parallel flag: a comma-separated list of
// positive worker counts.
func parseParallelLevels(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var levels []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -parallel level %q (want positive integers, e.g. 1,2,4)", part)
		}
		levels = append(levels, n)
	}
	return levels, nil
}

// evalCorpus prepares the canonical BCQ of every corpus entry with one
// shared engine (falling back to naive plans past maxWidth), compiles each
// entry's canonical database once, binds, and evaluates the bound query.
// Structurally repeated entries hit the decomposition cache, which the
// stats make visible.
func evalCorpus(out io.Writer, c *hyperbench.Corpus, maxWidth int, human bool) (*evalReport, error) {
	ctx := context.Background()
	eng := d2cq.NewEngine(d2cq.WithMaxWidth(maxWidth), d2cq.WithNaiveFallback())
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
		prep, err := eng.Prepare(ctx, inst.Q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		if prep.Plan().Naive() {
			naive++
		}
		cdb, err := eng.CompileDB(ctx, inst.D)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		bound, err := prep.Bind(ctx, cdb)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		ok, err := bound.Bool(ctx)
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

// updatesReport records the incremental-maintenance benchmark: total wall
// time of BoundQuery.Update for single-tuple deltas against total wall time
// of the CompileDB+Bind recompile the Update replaces.
type updatesReport struct {
	Entries       int     `json:"entries"`
	Rounds        int     `json:"rounds"`
	TuplesPerEdge int     `json:"tuples_per_edge"`
	IncrementalMS float64 `json:"incremental_ms"`
	RecompileMS   float64 `json:"recompile_ms"`
	Speedup       float64 `json:"speedup"`
	Checked       int     `json:"checked"`
}

// updatesEntryCap bounds how many corpus entries the updates benchmark
// samples, and updatesTuplesPerEdge how many tuples each edge relation gets
// (large enough that recompiling dominates, small enough to stay quick).
const (
	updatesEntryCap      = 24
	updatesTuplesPerEdge = 64
	updatesConstantPool  = 16
	updatesCheckEveryN   = 16
	updatesBenchMaxWidth = 3
)

// updatesBench binds the canonical BCQ of a sample of corpus entries over a
// generated database and, per round, applies one single-tuple delta two
// ways: incrementally (BoundQuery.Update, copy-on-write snapshot) and by
// recompiling the same logical database from scratch (CompileDB + Bind).
// Both paths are timed end to end and spot-checked against each other.
func updatesBench(out io.Writer, c *hyperbench.Corpus, rounds int, human bool) (*updatesReport, error) {
	ctx := context.Background()
	eng := d2cq.NewEngine(d2cq.WithMaxWidth(updatesBenchMaxWidth), d2cq.WithNaiveFallback())
	entries := c.Entries
	if len(entries) > updatesEntryCap {
		sampled := make([]hyperbench.Entry, 0, updatesEntryCap)
		for i := 0; i < updatesEntryCap; i++ {
			sampled = append(sampled, entries[i*len(entries)/updatesEntryCap])
		}
		entries = sampled
	}
	if human {
		fmt.Fprintf(out, "\n=== incremental updates (%d entries × %d rounds, %d tuples/edge) ===\n",
			len(entries), rounds, updatesTuplesPerEdge)
	}
	rep := &updatesReport{Entries: len(entries), TuplesPerEdge: updatesTuplesPerEdge}
	var incTotal, recTotal time.Duration
	for ei, e := range entries {
		inst := reduction.NewInstance(e.H)
		for edge := 0; edge < e.H.NE(); edge++ {
			cols := len(e.H.EdgeVertexNames(edge))
			for t := 0; t < updatesTuplesPerEdge; t++ {
				row := make([]string, cols)
				for cix := range row {
					row[cix] = fmt.Sprintf("c%d", (t*7+cix*13+edge)%updatesConstantPool)
				}
				inst.D.Add(e.H.EdgeName(edge), row...)
			}
		}
		prep, err := eng.Prepare(ctx, inst.Q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		cdb, err := eng.CompileDB(ctx, inst.D)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		bound, err := prep.Bind(ctx, cdb)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		mirror := inst.D
		for r := 0; r < rounds; r++ {
			// Odd rounds delete the tuple the previous round inserted, so
			// every round is a real single-tuple change (never a no-op) on
			// the same relation the insert touched.
			base := r - r%2
			edge := base % e.H.NE()
			rel := e.H.EdgeName(edge)
			cols := len(e.H.EdgeVertexNames(edge))
			tuple := make([]string, cols)
			for cix := range tuple {
				tuple[cix] = fmt.Sprintf("u%d", (base*5+cix*3)%updatesConstantPool)
			}
			delta := d2cq.NewDelta()
			if r%2 == 0 {
				delta.Add(rel, tuple...)
			} else {
				delta.Remove(rel, tuple...)
			}
			start := time.Now()
			nb, err := bound.Update(ctx, delta)
			incTotal += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: Update: %w", e.Name, r, err)
			}
			bound = nb
			delta.ApplyToDatabase(mirror)
			start = time.Now()
			c2, err := eng.CompileDB(ctx, mirror)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: CompileDB: %w", e.Name, r, err)
			}
			b2, err := prep.Bind(ctx, c2)
			recTotal += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: Bind: %w", e.Name, r, err)
			}
			rep.Rounds++
			if (ei*rounds+r)%updatesCheckEveryN == 0 {
				ok1, err := bound.Bool(ctx)
				if err != nil {
					return nil, fmt.Errorf("%s round %d: incremental Bool: %w", e.Name, r, err)
				}
				ok2, err := b2.Bool(ctx)
				if err != nil {
					return nil, fmt.Errorf("%s round %d: recompiled Bool: %w", e.Name, r, err)
				}
				if ok1 != ok2 {
					return nil, fmt.Errorf("%s round %d: incremental Bool %v disagrees with recompiled %v", e.Name, r, ok1, ok2)
				}
				rep.Checked++
			}
		}
	}
	rep.IncrementalMS = float64(incTotal.Microseconds()) / 1000
	rep.RecompileMS = float64(recTotal.Microseconds()) / 1000
	if rep.IncrementalMS > 0 {
		rep.Speedup = rep.RecompileMS / rep.IncrementalMS
	}
	if human {
		fmt.Fprintf(out, "%d single-tuple updates: incremental %.1fms, recompile %.1fms — %.1f× speedup (%d spot checks passed)\n",
			rep.Rounds, rep.IncrementalMS, rep.RecompileMS, rep.Speedup, rep.Checked)
	}
	return rep, nil
}

// coalesceReport records the batched-ingestion benchmark: the same
// single-tuple delta stream applied one Update per delta versus one Update
// per Delta.Merge batch, with the engine Rebind counters proving the batch
// path pays one maintenance pass per batch instead of per delta.
type coalesceReport struct {
	Entries          int     `json:"entries"`
	Rounds           int     `json:"rounds"`
	Batch            int     `json:"batch"`
	TuplesPerEdge    int     `json:"tuples_per_edge"`
	PerDeltaMS       float64 `json:"per_delta_ms"`
	PerDeltaRebinds  uint64  `json:"per_delta_rebinds"`
	CoalescedMS      float64 `json:"coalesced_ms"`
	CoalescedRebinds uint64  `json:"coalesced_rebinds"`
	Speedup          float64 `json:"speedup"`
	Checked          int     `json:"checked"`
}

// coalesceDeleteLag is how many rounds after its insertion a tuple is
// deleted in the coalesce benchmark stream: odd (so the lagged round is an
// insert round) and larger than the default batch of 8 (so the pair spans a
// batch boundary instead of cancelling inside one).
const coalesceDeleteLag = 9

// coalesceBench replays one recorded stream of single-tuple deltas per
// sampled entry through two engines: the per-delta path calls
// BoundQuery.Update once per delta (one Apply + one Rebind each), the
// coalesced path folds every `batch` consecutive deltas into one with
// Delta.Merge and Updates once per batch. Both paths are timed end to end
// and must land on identical solution counts per entry (checked outside the
// timed windows).
func coalesceBench(out io.Writer, c *hyperbench.Corpus, rounds, batch int, human bool) (*coalesceReport, error) {
	ctx := context.Background()
	perEng := d2cq.NewEngine(d2cq.WithMaxWidth(updatesBenchMaxWidth), d2cq.WithNaiveFallback())
	batchEng := d2cq.NewEngine(d2cq.WithMaxWidth(updatesBenchMaxWidth), d2cq.WithNaiveFallback())
	entries := c.Entries
	if len(entries) > updatesEntryCap {
		sampled := make([]hyperbench.Entry, 0, updatesEntryCap)
		for i := 0; i < updatesEntryCap; i++ {
			sampled = append(sampled, entries[i*len(entries)/updatesEntryCap])
		}
		entries = sampled
	}
	if human {
		fmt.Fprintf(out, "\n=== coalesced ingestion (%d entries × %d single-tuple deltas, batches of %d, %d tuples/edge) ===\n",
			len(entries), rounds, batch, updatesTuplesPerEdge)
	}
	rep := &coalesceReport{Entries: len(entries), Batch: batch, TuplesPerEdge: updatesTuplesPerEdge}
	var perT, batchT time.Duration
	for _, e := range entries {
		inst := reduction.NewInstance(e.H)
		for edge := 0; edge < e.H.NE(); edge++ {
			cols := len(e.H.EdgeVertexNames(edge))
			for t := 0; t < updatesTuplesPerEdge; t++ {
				row := make([]string, cols)
				for cix := range row {
					row[cix] = fmt.Sprintf("c%d", (t*7+cix*13+edge)%updatesConstantPool)
				}
				inst.D.Add(e.H.EdgeName(edge), row...)
			}
		}
		// Record the stream once so both paths replay the exact same deltas:
		// even rounds insert a fresh distinct tuple, odd rounds delete the
		// tuple inserted coalesceDeleteLag rounds earlier. The lag is odd (so
		// it points at an insert round) and larger than the default batch, so
		// an insert and its delete land in different Merge batches — the
		// coalesced path must do real maintenance work per batch rather than
		// watching insert/delete pairs cancel into no-ops. (In-batch
		// cancellation is a legitimate coalescing win, but it is not what
		// this benchmark measures.)
		tupleFor := func(r int) (string, []string) {
			edge := r % e.H.NE()
			cols := len(e.H.EdgeVertexNames(edge))
			tuple := make([]string, cols)
			for cix := range tuple {
				tuple[cix] = fmt.Sprintf("u%d_%d", r, cix)
			}
			return e.H.EdgeName(edge), tuple
		}
		deltas := make([]*d2cq.Delta, rounds)
		for r := 0; r < rounds; r++ {
			deltas[r] = d2cq.NewDelta()
			if r%2 == 0 || r < coalesceDeleteLag {
				rel, tuple := tupleFor(r - r%2) // warm-up odd rounds re-insert (a no-op with real maintenance cost)
				deltas[r].Add(rel, tuple...)
			} else {
				rel, tuple := tupleFor(r - coalesceDeleteLag)
				deltas[r].Remove(rel, tuple...)
			}
		}
		bind := func(eng *d2cq.Engine) (*d2cq.BoundQuery, error) {
			prep, err := eng.Prepare(ctx, inst.Q)
			if err != nil {
				return nil, err
			}
			cdb, err := eng.CompileDB(ctx, inst.D)
			if err != nil {
				return nil, err
			}
			return prep.Bind(ctx, cdb)
		}
		perBound, err := bind(perEng)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		batchBound, err := bind(batchEng)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		start := time.Now()
		for r, delta := range deltas {
			if perBound, err = perBound.Update(ctx, delta); err != nil {
				return nil, fmt.Errorf("%s round %d: per-delta Update: %w", e.Name, r, err)
			}
		}
		perT += time.Since(start)
		start = time.Now()
		for lo := 0; lo < len(deltas); lo += batch {
			merged := d2cq.NewDelta()
			for _, d := range deltas[lo:min(lo+batch, len(deltas))] {
				merged.Merge(d)
			}
			if batchBound, err = batchBound.Update(ctx, merged); err != nil {
				return nil, fmt.Errorf("%s batch at %d: coalesced Update: %w", e.Name, lo, err)
			}
		}
		batchT += time.Since(start)
		rep.Rounds += rounds
		n1, err := perBound.Count(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: per-delta Count: %w", e.Name, err)
		}
		n2, err := batchBound.Count(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: coalesced Count: %w", e.Name, err)
		}
		if n1 != n2 {
			return nil, fmt.Errorf("%s: per-delta Count %d disagrees with coalesced %d", e.Name, n1, n2)
		}
		rep.Checked++
	}
	rep.PerDeltaMS = float64(perT.Microseconds()) / 1000
	rep.CoalescedMS = float64(batchT.Microseconds()) / 1000
	rep.PerDeltaRebinds = perEng.Stats().Rebinds
	rep.CoalescedRebinds = batchEng.Stats().Rebinds
	if rep.CoalescedMS > 0 {
		rep.Speedup = rep.PerDeltaMS / rep.CoalescedMS
	}
	if human {
		fmt.Fprintf(out, "%d deltas: per-delta %.1fms (%d rebinds), coalesced ×%d %.1fms (%d rebinds) — %.1f× (%d entries cross-checked)\n",
			rep.Rounds, rep.PerDeltaMS, rep.PerDeltaRebinds, batch, rep.CoalescedMS, rep.CoalescedRebinds, rep.Speedup, rep.Checked)
	}
	return rep, nil
}

// parallelReport records the WithParallelism sweep: per worker count, the
// wall time of Bind (node materialisation), the counting DP (first Count on
// a fresh BoundQuery) and EnumerateAll (full reduction + streaming + sort)
// summed over the sampled entries, with speedups relative to the
// parallelism-1 level. num_cpu and gomaxprocs give the hardware context the
// numbers must be read against.
type parallelReport struct {
	Entries       int             `json:"entries"`
	TuplesPerEdge int             `json:"tuples_per_edge"`
	Answers       int64           `json:"answers"`
	NumCPU        int             `json:"num_cpu"`
	GOMAXPROCS    int             `json:"gomaxprocs"`
	Sweep         []parallelLevel `json:"sweep"`
}

type parallelLevel struct {
	Parallelism      int     `json:"parallelism"`
	BindMS           float64 `json:"bind_ms"`
	CountMS          float64 `json:"count_ms"`
	EnumerateAllMS   float64 `json:"enumerate_all_ms"`
	CountSpeedup     float64 `json:"count_speedup,omitempty"`
	EnumerateSpeedup float64 `json:"enumerate_speedup,omitempty"`
}

// parallelEntryCap bounds the sampled entries, parallelTuplesPerEdge sizes
// each edge relation, and parallelCountCap skips entries whose answer sets
// would dominate the run.
const (
	parallelEntryCap      = 16
	parallelConstantPool  = 64
	parallelCountCap      = 2000000
	parallelJoinCap       = 4e6
	parallelBenchMaxWidth = 3
)

// parallelTuplesPerEdge sizes each edge relation of the sweep databases. A
// variable rather than a constant so the test suite can shrink the sweep to
// seconds; real runs always use the default.
var parallelTuplesPerEdge = 512

// estimateMaterialisation bounds the expected intermediate size of binding
// the entry: per decomposition node, the λ-edge relations are joined
// smallest-first, and under the random-tuple model each already-constrained
// shared variable divides the expected size by the constant pool. Entries
// whose estimate blows past parallelJoinCap (λ edges sharing few variables
// degenerate towards cross products) are skipped before the scout ever
// binds them.
func estimateMaterialisation(e hyperbench.Entry, d *d2cq.GHD, relSize map[string]int) float64 {
	worst := 0.0
	for u := 0; u < d.Nodes(); u++ {
		est := 1.0
		seen := map[int]bool{}
		for _, eidx := range d.Lambdas[u] {
			size := float64(relSize[e.H.EdgeName(eidx)])
			shared := 0
			e.H.EdgeSet(eidx).ForEach(func(v int) bool {
				if seen[v] {
					shared++
				} else {
					seen[v] = true
				}
				return true
			})
			est *= size
			for i := 0; i < shared; i++ {
				est /= parallelConstantPool
			}
			if est > worst {
				worst = est
			}
		}
	}
	return worst
}

// parallelEntryDB generates the benchmark database of one corpus entry:
// tuplesPerEdge pseudo-random tuples per edge relation over a moderate
// constant pool, deterministic per entry. Unlike the structured pattern of
// updatesBench (built for Bool, where a handful of distinct tuples
// suffices), random tuples give the joins real fan-out, so the counting DP
// and the enumeration have work to split across workers.
func parallelEntryDB(e hyperbench.Entry, seed int64, tuplesPerEdge int) reduction.Instance {
	rng := rand.New(rand.NewSource(seed))
	inst := reduction.NewInstance(e.H)
	for edge := 0; edge < e.H.NE(); edge++ {
		cols := len(e.H.EdgeVertexNames(edge))
		for t := 0; t < tuplesPerEdge; t++ {
			row := make([]string, cols)
			for cix := range row {
				row[cix] = fmt.Sprintf("c%d", rng.Intn(parallelConstantPool))
			}
			inst.D.Add(e.H.EdgeName(edge), row...)
		}
	}
	return inst
}

// parallelBench sweeps WithParallelism over the given worker counts. A
// sequential scout pass first fixes the entry sample — decomposed plans with
// a non-empty, bounded answer set — and its counts; every sweep level then
// binds each entry fresh (so Bind, the counting DP and the full reduction
// all run from scratch at that parallelism) and is cross-checked against
// the scout's counts.
func parallelBench(out io.Writer, c *hyperbench.Corpus, levels []int, human bool) (*parallelReport, error) {
	ctx := context.Background()
	entries := c.Entries
	if len(entries) > parallelEntryCap {
		sampled := make([]hyperbench.Entry, 0, parallelEntryCap)
		for i := 0; i < parallelEntryCap; i++ {
			sampled = append(sampled, entries[i*len(entries)/parallelEntryCap])
		}
		entries = sampled
	}
	scout := d2cq.NewEngine(d2cq.WithMaxWidth(parallelBenchMaxWidth), d2cq.WithNaiveFallback())
	type pick struct {
		entry hyperbench.Entry
		seed  int64
		count int64
	}
	var picks []pick
	var answers int64
	for ei, e := range entries {
		seed := int64(ei) + 1
		inst := parallelEntryDB(e, seed, parallelTuplesPerEdge)
		prep, err := scout.Prepare(ctx, inst.Q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		if prep.Plan().Naive() {
			continue // no decomposition: nothing for the parallel passes to split
		}
		relSize := map[string]int{}
		for rel, tuples := range inst.D {
			seen := map[string]bool{}
			for _, t := range tuples {
				seen[strings.Join(t, "\x00")] = true
			}
			relSize[rel] = len(seen)
		}
		if estimateMaterialisation(e, prep.Plan().Decomp(), relSize) > parallelJoinCap {
			continue // λ joins degenerate towards cross products: binding alone would dwarf the sweep
		}
		cdb, err := scout.CompileDB(ctx, inst.D)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		bound, err := prep.Bind(ctx, cdb)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		n, err := bound.Count(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: Count: %w", e.Name, err)
		}
		if n == 0 || n > parallelCountCap {
			continue
		}
		picks = append(picks, pick{entry: e, seed: seed, count: n})
		answers += n
	}
	rep := &parallelReport{
		Entries:       len(picks),
		TuplesPerEdge: parallelTuplesPerEdge,
		Answers:       answers,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
	}
	if human {
		fmt.Fprintf(out, "\n=== WithParallelism sweep (%d entries, %d tuples/edge, %d answers; %d CPUs, GOMAXPROCS %d) ===\n",
			rep.Entries, rep.TuplesPerEdge, rep.Answers, rep.NumCPU, rep.GOMAXPROCS)
	}
	for _, n := range levels {
		eng := d2cq.NewEngine(d2cq.WithMaxWidth(parallelBenchMaxWidth), d2cq.WithNaiveFallback(), d2cq.WithParallelism(n))
		lvl := parallelLevel{Parallelism: n}
		var bindT, countT, enumT time.Duration
		for _, p := range picks {
			inst := parallelEntryDB(p.entry, p.seed, parallelTuplesPerEdge)
			prep, err := eng.Prepare(ctx, inst.Q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.entry.Name, err)
			}
			cdb, err := eng.CompileDB(ctx, inst.D)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.entry.Name, err)
			}
			start := time.Now()
			bound, err := prep.Bind(ctx, cdb)
			bindT += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s: Bind: %w", p.entry.Name, err)
			}
			start = time.Now()
			cnt, err := bound.Count(ctx)
			countT += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s: Count: %w", p.entry.Name, err)
			}
			if cnt != p.count {
				return nil, fmt.Errorf("%s: parallelism %d counts %d, sequential scout %d", p.entry.Name, n, cnt, p.count)
			}
			start = time.Now()
			rel, _, err := bound.EnumerateAll(ctx)
			enumT += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s: EnumerateAll: %w", p.entry.Name, err)
			}
			if int64(rel.Len()) != p.count {
				return nil, fmt.Errorf("%s: parallelism %d enumerates %d rows, scout counted %d", p.entry.Name, n, rel.Len(), p.count)
			}
		}
		lvl.BindMS = float64(bindT.Microseconds()) / 1000
		lvl.CountMS = float64(countT.Microseconds()) / 1000
		lvl.EnumerateAllMS = float64(enumT.Microseconds()) / 1000
		rep.Sweep = append(rep.Sweep, lvl)
	}
	var base *parallelLevel
	for i := range rep.Sweep {
		if rep.Sweep[i].Parallelism == 1 {
			base = &rep.Sweep[i]
			break
		}
	}
	for i := range rep.Sweep {
		lvl := &rep.Sweep[i]
		if base != nil && lvl.CountMS > 0 {
			lvl.CountSpeedup = base.CountMS / lvl.CountMS
		}
		if base != nil && lvl.EnumerateAllMS > 0 {
			lvl.EnumerateSpeedup = base.EnumerateAllMS / lvl.EnumerateAllMS
		}
		if human {
			if base != nil {
				fmt.Fprintf(out, "parallelism %d: bind %.1fms, count %.1fms (%.2f×), enumerate-all %.1fms (%.2f×)\n",
					lvl.Parallelism, lvl.BindMS, lvl.CountMS, lvl.CountSpeedup, lvl.EnumerateAllMS, lvl.EnumerateSpeedup)
			} else {
				// No parallelism-1 level in the sweep: no baseline to compare to.
				fmt.Fprintf(out, "parallelism %d: bind %.1fms, count %.1fms, enumerate-all %.1fms\n",
					lvl.Parallelism, lvl.BindMS, lvl.CountMS, lvl.EnumerateAllMS)
			}
		}
	}
	return rep, nil
}
