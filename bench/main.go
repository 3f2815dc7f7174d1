// Command bench is d2cq's one benchmark harness. It generates every input
// from -seed, runs one of four workloads (or all of them), checks every answer
// against a from-scratch reference, and prints each metric by name with its
// unit. README.md beside this file says what the workloads and metrics mean.
//
//	bench -workload serve.wire -seed 3 -seconds 10 -trace 0   one run, as BENCHMARK.json's command makes it
//	bench [-seed 1] [-repeat 2]                               the whole suite, untraced then traced, into out/
//	bench -compare a.json b.json                              two suite reports against the fixed bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one named metric; BENCHMARK.json lists the same names.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share
}

// The end-to-end metrics: three delays every user of a query-answering
// system waits for, the rate at which operations complete, and set-up time.
// README.md has the per-workload reading of each.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"answer_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
}

// The per-layer metrics, layer = module name. A workload that bypasses a
// layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "cq.parse_us", Unit: "us", Better: "lower"},
	{Name: "decomp.ghw_ms", Unit: "ms", Better: "lower"},
	{Name: "decomp.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "decomp.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.apply_small_us", Unit: "us", Better: "lower"},
	{Name: "storage.apply_large_us", Unit: "us", Better: "lower"},
	{Name: "storage.codec_us", Unit: "us", Better: "lower"},
	{Name: "storage.rows_touched_per_apply", Unit: "count", Better: "lower"},
	{Name: "engine.bind_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.count_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.enum_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.rebind_us", Unit: "us", Better: "lower"},
	{Name: "engine.count_upd_us", Unit: "us", Better: "lower"},
	{Name: "engine.diff_us", Unit: "us", Better: "lower"},
	{Name: "engine.solutions_us", Unit: "us", Better: "lower"},
	{Name: "engine.delta_path_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.atom_fast_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.diff_fast_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.rebinds_per_flush", Unit: "count", Better: "lower"},
	{Name: "live.submit_us", Unit: "us", Better: "lower"},
	{Name: "live.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "live.stage_ms", Unit: "ms", Better: "lower"},
	{Name: "live.commit_us", Unit: "us", Better: "lower"},
	{Name: "live.lock_hold_max_us", Unit: "us", Better: "lower"},
	{Name: "live.staged_per_flush", Unit: "count", Better: "lower"},
	{Name: "live.touched_ratio", Unit: "ratio", Better: "higher"},
	{Name: "live.coalesce_ratio", Unit: "ratio", Better: "lower"},
	{Name: "live.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.log_append_us", Unit: "us", Better: "lower"},
	{Name: "wal.sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.syncs", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.replayed_records", Unit: "count", Better: "lower"},
	{Name: "wire.encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.frames_out", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_notify", Unit: "B", Better: "lower"},
	{Name: "wire.self_us", Unit: "us", Better: "lower"},
	{Name: "d2cqd.http_self_us", Unit: "us", Better: "lower"},
	{Name: "d2cqd.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "d2cqd.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "client.gen_late_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.answer_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.trace_overhead_pct", Unit: "%", Better: "lower"},
}

var workloads = []string{"batch.corpus", "flush.closed", "serve.wire", "serve.http"}

// options is one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	d2cqd    string // daemon binary
	outDir   string // spans, reports and scratch directories
}

// setupRuns is how many times an untraced run sets up: setup_s is their
// median. A traced run reports no set-up time and sets up once.
func (o options) setupRuns() int {
	if o.trace {
		return 1
	}
	return 3
}

// outcome is what one run measured and checked.
type outcome struct {
	attempted int
	failed    int
	values    map[string]float64
	notes     []string
	invalid   string // why the run's timings must not be used, if so
	tracer    *tracer
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func defs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runOne performs one run of one workload and writes its spans, if any.
func runOne(ctx context.Context, o options) (*outcome, error) {
	var out *outcome
	var err error
	switch {
	case o.workload == "batch.corpus":
		out, err = runBatch(ctx, o)
	case liveSpecs[o.workload].shapes != nil:
		out, err = runLive(ctx, o.workload, o)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	if out.tracer != nil {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := out.tracer.write(path); err != nil {
			return nil, err
		}
		out.notef("%s spans written to %s", o.workload, path)
	}
	return out, nil
}

// print lists the run's notes and then every metric as
// "workload metric value unit".
func (o *outcome) print(workload string, trace bool) {
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, d := range defs(trace) {
		fmt.Printf("%s %s %.6g %s\n", workload, d.Name, o.values[d.Name], d.Unit)
	}
	fmt.Printf("%s failed_share %.6g ratio (%d of %d)\n", workload, ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
}

// resultLine is the run's machine-readable last line.
func (o *outcome) resultLine(trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs(trace) {
		metrics[d.Name] = value{o.values[d.Name], d.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	return string(line)
}

func main() {
	var o options
	var trace, repeat int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run this one workload (default: the whole suite)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring time of one run")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, which reports the per-layer metrics")
	flag.StringVar(&o.d2cqd, "d2cqd", "", "d2cqd binary (default: build it from cmd/d2cqd)")
	flag.StringVar(&o.outDir, "out", "out", "directory for reports, spans and scratch data")
	flag.IntVar(&repeat, "repeat", 1, "suite: run it this many times and compare the halves")
	flag.BoolVar(&compare, "compare", false, "compare the two suite reports named as arguments")
	flag.Parse()
	o.trace = trace != 0
	os.Exit(run(o, repeat, compare, flag.Args()))
}

func run(o options, repeat int, compare bool, args []string) int {
	if compare {
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two report files")
			return 2
		}
		return compareFiles(args[0], args[1])
	}
	if runtime.NumCPU() < 2 {
		// One CPU would time the generator's goroutines against the
		// system's, as the superseded BENCH_pr*.json files did.
		fmt.Fprintln(os.Stderr, "bench: refusing to run on fewer than 2 CPUs")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	cleanupOnSignal()
	defer cleanupAll()
	abs, err := filepath.Abs(o.outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	o.outDir = abs
	var buildTime time.Duration
	if o.d2cqd == "" {
		dir, err := scratchDir(o.outDir, "bin-")
		if err == nil {
			o.d2cqd, buildTime, err = buildDaemon(dir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	ctx := context.Background()
	if o.workload == "" {
		return suite(ctx, o, repeat, buildTime)
	}
	out, err := runOne(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	out.print(o.workload, o.trace)
	if out.invalid != "" {
		// The answers were right; the timings are the generator's own. One
		// run says so and leaves the verdict to whoever compares runs; the
		// suite drops the run from its report.
		fmt.Println("INVALID RUN:", out.invalid)
	}
	fmt.Println(out.resultLine(o.trace))
	if out.failed > 0 {
		return 1
	}
	return 0
}

// report is the suite's JSON: host facts, then every metric of every
// workload, one value per repeat.
type report struct {
	Schema  string               `json:"schema"`
	Host    host                 `json:"host"`
	Seed    int64                `json:"seed"`
	Seconds float64              `json:"seconds"`
	BuildS  float64              `json:"build_s"`
	Runs    map[string]*suiteRun `json:"runs"`
	Claim   *string              `json:"claim"` // this harness measures; it claims nothing
}

type host struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

type suiteRun struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
}

func hostFacts() host {
	h := host{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// suite runs every workload untraced and then traced, repeat times, prints
// the metrics, writes the report, and — from two repeats on — compares the
// first half of the repeats with the second.
func suite(ctx context.Context, o options, repeat int, buildTime time.Duration) int {
	rep := &report{Schema: "d2cq-bench/1", Host: hostFacts(), Seed: o.seed, Seconds: o.seconds,
		BuildS: buildTime.Seconds(), Runs: map[string]*suiteRun{}}
	code := 0
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			sr := rep.Runs[w]
			if sr == nil {
				sr = &suiteRun{EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
				rep.Runs[w] = sr
			}
			for _, trace := range []bool{false, true} {
				ro := o
				ro.workload, ro.trace = w, trace
				out, err := runOne(ctx, ro)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
					return 1
				}
				out.print(w, trace)
				if out.invalid != "" {
					fmt.Printf("INVALID RUN: %s: %s\n", w, out.invalid)
					code = 1
					continue // an invalid run's numbers are not reported
				}
				into := sr.EndToEnd
				if trace {
					into = sr.PerLayer
				}
				for _, d := range defs(trace) {
					into[d.Name] = append(into[d.Name], out.values[d.Name])
				}
				sr.Attempted += out.attempted
				sr.Failed += out.failed
				if out.failed > 0 {
					code = 1
				}
			}
		}
	}
	fmt.Printf("suite build_s %.6g s\n", rep.BuildS)
	data, _ := json.MarshalIndent(rep, "", "  ")
	path := filepath.Join(o.outDir, fmt.Sprintf("report-seed%d.json", o.seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("report written to", path)
	if repeat >= 2 && !compareReports(rep.halves()) {
		code = 1
	}
	return code
}

// halves splits a repeated report into its first and second half of repeats.
func (r *report) halves() (*report, *report) {
	a, b := *r, *r
	a.Runs, b.Runs = map[string]*suiteRun{}, map[string]*suiteRun{}
	for w, sr := range r.Runs {
		ra, rb := &suiteRun{EndToEnd: map[string][]float64{}}, &suiteRun{EndToEnd: map[string][]float64{}}
		for name, v := range sr.EndToEnd {
			ra.EndToEnd[name], rb.EndToEnd[name] = v[:len(v)/2], v[len(v)/2:]
		}
		a.Runs[w], b.Runs[w] = ra, rb
	}
	return &a, &b
}

func compareFiles(pathA, pathB string) int {
	var reps [2]report
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	if !compareReports(&reps[0], &reps[1]) {
		return 1
	}
	return 0
}

// verdict compares one metric's values from two sides against its fixed
// bound. A spread wider than the bound on either side cannot resolve a
// change of the bound's size, whatever the medians say.
func verdict(d metricDef, a, b []float64) (medA, medB, change float64, v string) {
	medA, medB = medianF(a), medianF(b)
	change = ratio(medB-medA, medA)
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		v = "missing"
	case spread(a) > d.Bound || spread(b) > d.Bound:
		v = "unresolved"
	case worse > d.Bound:
		v = "worse"
	case worse < -d.Bound:
		v = "better"
	default:
		v = "same"
	}
	return
}

// compareReports prints one row per workload and end-to-end metric and
// reports whether every verdict is "same" or "better".
func compareReports(a, b *report) bool {
	ok := true
	fmt.Printf("%-13s %-14s %12s %12s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "change", "bound", "verdict")
	for _, w := range sortedKeys(a.Runs) {
		ra, rb := a.Runs[w], b.Runs[w]
		if rb == nil {
			fmt.Printf("%-13s missing from the second report\n", w)
			ok = false
			continue
		}
		for _, d := range endToEnd {
			ma, mb, change, v := verdict(d, ra.EndToEnd[d.Name], rb.EndToEnd[d.Name])
			fmt.Printf("%-13s %-14s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n", w, d.Name, ma, mb, 100*change, 100*d.Bound, v)
			ok = ok && (v == "same" || v == "better")
		}
	}
	return ok
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
