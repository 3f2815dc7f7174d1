package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
	"d2cq/internal/hyperbench"
)

// batch.corpus constants. The corpus itself is fixed — the exact-ghw search
// behind it is heavy-tailed in the generator seed (0.5 s to 50 s for one
// PerFamily), so a seed-driven corpus would make every metric of this
// workload a property of the seed. -seed drives the databases instead.
var (
	corpusOptions = hyperbench.Options{Seed: 5, PerFamily: 6, MaxWidth: 5}
	// Tuples per edge relation by plan width: width-k bags are joins of k
	// relations, so the row budget shrinks with the width.
	corpusTuples = map[int]int{1: 5000, 2: 200, 3: 30}
)

const (
	corpusMaxWidth    = 3      // entries that need a wider plan are left out
	corpusNaiveBudget = 50_000 // candidate tuples the naive check may visit
)

// corpusEntry is one degree-2 query of the corpus with its seeded database.
type corpusEntry struct {
	name    string
	text    string
	db      cq.Database
	naive   int64 // reference count, valid when naiveOK
	naiveOK bool
}

// batchInput is a finished batch.corpus set-up.
type batchInput struct {
	entries []corpusEntry
	total   int           // corpus size before the width filter
	ghw     time.Duration // time the corpus generation (exact ghw search) took
}

// setupBatch generates the corpus and, for every entry that prepares at
// width ≤ 3 without the naive fallback, its database and reference count.
func setupBatch(ctx context.Context, seed int64) (*batchInput, error) {
	start := time.Now()
	c, err := hyperbench.Generate(corpusOptions)
	if err != nil {
		return nil, err
	}
	in := &batchInput{total: len(c.Entries), ghw: time.Since(start)}
	eng := engine.NewEngine(engine.WithMaxWidth(corpusMaxWidth))
	for i, e := range c.Entries {
		if e.GHW.Upper > corpusMaxWidth {
			continue // the corpus's own ghw data says no plan of the bound's width exists
		}
		// The canonical query of the hypergraph, under names the query
		// parser accepts (corpus names like "e1,1" are not identifiers).
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
			continue // the engine's decomposition came out wider than the bound
		}
		// A hypergraph of c components answers with the product of c
		// results, so its relations shrink to keep the answer set bounded.
		comps := max(1, len(e.H.Components()))
		n := max(2, int(math.Round(math.Pow(float64(corpusTuples[max(1, prep.Plan().Width())]), 1/float64(comps)))))
		pool := n
		if prep.Plan().Width() > 1 {
			pool = (n + 1) / 2 // denser, so that cyclic queries still have answers
		}
		rng := rand.New(rand.NewSource(seed<<16 + int64(i)))
		db := cq.Database{}
		for _, a := range q.Atoms {
			seen := map[string]bool{}
			for t := 0; t < n; t++ {
				row := make([]string, len(a.Args))
				for c := range row {
					row[c] = fmt.Sprintf("c%d", rng.Intn(pool))
				}
				if k := strings.Join(row, ","); !seen[k] {
					seen[k] = true
					db.Add(a.Rel, row...)
				}
			}
		}
		ent := corpusEntry{name: e.Name, text: q.String(), db: db}
		ent.naive, ent.naiveOK = naiveCount(q, db, corpusNaiveBudget)
		in.entries = append(in.entries, ent)
	}
	if len(in.entries) == 0 {
		return nil, fmt.Errorf("batch.corpus: no corpus entry prepares at width %d", corpusMaxWidth)
	}
	return in, nil
}

// batchPass is what one pass over the corpus measured.
type batchPass struct {
	wall                time.Duration
	write, answer, read time.Duration // summed over the entries
	rows                int64
	failed              int
	cache               [2]uint64 // decomposition cache hits, misses
}

// runBatchPass answers every entry once on a fresh engine: parse, Prepare,
// CompileDB, Bind, Bool, Count, EnumerateAll, each call timed on its own and
// checked against the others and the naive count.
func runBatchPass(ctx context.Context, in *batchInput, tr *tracer) (batchPass, error) {
	var p batchPass
	eng := engine.NewEngine(engine.WithMaxWidth(corpusMaxWidth))
	timed := func(name string, parent int, f func() error) (time.Duration, error) {
		id := tr.begin(name, parent, -1)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		tr.end(id)
		return d, err
	}
	start := time.Now()
	for i := range in.entries {
		e := &in.entries[i]
		var (
			q     cq.Query
			prep  *engine.PreparedQuery
			cdb   *engine.CompiledDB
			bound *engine.BoundQuery
			sat   bool
			count int64
			rel   *engine.Relation
		)
		root := tr.begin("batch.answer", -1, int64(i))
		steps := []struct {
			name  string
			into  *time.Duration
			apply func() (err error)
		}{
			{"cq.Parse", nil, func() (err error) { q, err = cq.ParseQuery(e.text); return }},
			{"decomp.Prepare", nil, func() (err error) { prep, err = eng.Prepare(ctx, q); return }},
			{"storage.Compile", &p.write, func() (err error) { cdb, err = eng.CompileDB(ctx, e.db); return }},
			{"engine.Bind", nil, func() (err error) { bound, err = prep.Bind(ctx, cdb); return }},
			{"engine.Bool", nil, func() (err error) { sat, err = bound.Bool(ctx); return }},
			{"engine.Count", nil, func() (err error) { count, err = bound.Count(ctx); return }},
			{"engine.EnumerateAll", &p.read, func() (err error) { rel, _, err = bound.EnumerateAll(ctx); return }},
		}
		for _, s := range steps {
			d, err := timed(s.name, root, s.apply)
			if err != nil {
				return p, fmt.Errorf("%s: %s: %w", e.name, s.name, err)
			}
			if s.into != nil {
				*s.into += d
			}
			if s.name != "engine.EnumerateAll" {
				p.answer += d // handed the data → count known
			}
		}
		tr.end(root)
		p.rows += int64(rel.Len())
		if count != int64(rel.Len()) || sat != (count > 0) || (e.naiveOK && count != e.naive) {
			p.failed++
		}
	}
	p.wall = time.Since(start)
	st := eng.Stats().Cache
	p.cache = [2]uint64{st.Hits, st.Misses}
	return p, nil
}

// runBatch is the batch.corpus workload: closed loop, one caller, library
// path. Set-up runs setupRuns times (its median is setup_s); whole passes
// repeat until the measuring time is used up.
func runBatch(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome()
	var in *batchInput
	var setups []time.Duration
	for i := 0; i < o.setupRuns(); i++ {
		t0 := time.Now()
		var err error
		if in, err = setupBatch(ctx, o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	out.set("setup_s", medianDur(setups).Seconds())

	var tr *tracer
	if o.trace {
		tr = newTracer()
		// The untraced third of a traced run is the base of trace_overhead_pct.
		base, err := batchPhase(ctx, in, nil, o.seconds/3, out, false)
		if err != nil {
			return nil, err
		}
		traced, err := batchPhase(ctx, in, tr, o.seconds-o.seconds/3, out, true)
		if err != nil {
			return nil, err
		}
		out.set("client.trace_overhead_pct", 100*(base-traced)/base)
		out.set("decomp.ghw_ms", ms(in.ghw)/float64(in.total))
		out.set("cq.parse_us", us(mean(tr.durations("cq.Parse"))))
		out.set("decomp.prepare_ms", ms(mean(tr.durations("decomp.Prepare"))))
		out.set("storage.compile_ms", ms(mean(tr.durations("storage.Compile"))))
		out.set("engine.bind_ms", ms(mean(tr.durations("engine.Bind"))))
		out.set("engine.count_ms", ms(mean(tr.durations("engine.Count"))))
		out.tracer = tr
		return out, nil
	}
	_, err := batchPhase(ctx, in, nil, o.seconds, out, true)
	return out, err
}

// batchPhase repeats whole passes for the given time and, when record is
// set, stores the phase's metrics. It returns answers per second.
func batchPhase(ctx context.Context, in *batchInput, tr *tracer, seconds float64, out *outcome, record bool) (float64, error) {
	var passes []batchPass
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < seconds {
		p, err := runBatchPass(ctx, in, tr)
		if err != nil {
			return 0, err
		}
		passes = append(passes, p)
	}
	// Every figure is a per-pass value reported as the median over passes —
	// the rate as entries over the median pass time, the latencies as
	// per-pass means over the entries: entries differ by orders of magnitude,
	// so a median over single answers would only ever show the middle entry,
	// and a pass slowed by a neighbour on the host should not move the result.
	n := len(in.entries)
	var walls, write, answer, read []time.Duration
	var enum time.Duration
	var rows int64
	var hits, misses uint64
	failed := 0
	for _, p := range passes {
		walls = append(walls, p.wall)
		write = append(write, p.write/time.Duration(n))
		answer = append(answer, p.answer/time.Duration(n))
		read = append(read, p.read/time.Duration(n))
		enum += p.read
		rows += p.rows
		hits += p.cache[0]
		misses += p.cache[1]
		failed += p.failed
	}
	rate := float64(n) / medianDur(walls).Seconds()
	if !record {
		return rate, nil
	}
	out.attempted += n * len(passes)
	out.failed += failed
	out.set("ops_per_s", rate)
	out.set("write_p50_ms", ms(medianDur(write)))
	out.set("answer_p50_ms", ms(medianDur(answer)))
	out.set("read_p50_ms", ms(medianDur(read)))
	out.set("engine.enum_rows_per_s", float64(rows)/enum.Seconds())
	out.set("decomp.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	out.notef("batch.corpus: %d of %d corpus entries at width <= %d, %d passes, %d answers, %d rows enumerated per pass",
		n, in.total, corpusMaxWidth, len(passes), n*len(passes), rows/int64(len(passes)))
	return rate, nil
}
