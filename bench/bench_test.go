package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
	"d2cq/internal/live"
	"d2cq/internal/storage"
	"d2cq/internal/wal"
)

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	shapes := []shape{shapeJigsaw, shapeJigsaw}
	hash := func(seed int64) string { return newGenerator(seed, shapes, 0.2).streamHash(500) }
	if a, b := hash(7), hash(7); a != b {
		t.Fatalf("seed 7 gave two op streams: %s and %s", a, b)
	}
	if hash(7) == hash(8) {
		t.Fatal("seeds 7 and 8 gave the same op stream")
	}
	a, b := newGenerator(7, shapes, 0.2), newGenerator(7, shapes, 0.2)
	if !reflect.DeepEqual(a.database(), b.database()) {
		t.Fatal("seed 7 gave two databases")
	}
}

func TestSweepRestoresThePlantedState(t *testing.T) {
	g := newGenerator(3, []shape{shapeJigsaw}, 0)
	before := g.database()
	ops := g.sweep()
	if want := 2 * len(shapeJigsaw.atoms); len(ops) != want {
		t.Fatalf("sweep has %d ops, want %d", len(ops), want)
	}
	db := g.database()
	for _, o := range ops {
		o.delta().ApplyToDatabase(db)
	}
	if !reflect.DeepEqual(rowsAnswerOf(db), rowsAnswerOf(before)) {
		t.Fatal("the database after the sweep differs from the one before it")
	}
}

// rowsAnswerOf digests a whole database, order-independently.
func rowsAnswerOf(db cq.Database) map[string]answer {
	out := map[string]answer{}
	for rel, tuples := range db {
		out[rel] = rowsAnswer(tuples)
	}
	return out
}

func TestTailRule(t *testing.T) {
	pop := func(n int) []time.Duration {
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = time.Duration(i + 1)
		}
		return d
	}
	for _, c := range []struct {
		n    int
		want time.Duration
		pct  float64
	}{
		{10, 0, 0},         // nothing has ten samples beyond it
		{11, 1, 100. / 11}, // the smallest sample has exactly ten beyond
		{1000, 990, 99},    // p99 needs a thousand samples
		{200, 190, 95},
	} {
		got, pct := tailRule(pop(c.n))
		if got != c.want || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tailRule(%d samples) = %v at p%v, want %v at p%v", c.n, got, pct, c.want, c.pct)
		}
	}
}

func TestSpreadUsesPythonsQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{100}, []float64{105}, "same"},
		{lower, []float64{100}, []float64{115}, "worse"},
		{lower, []float64{100}, []float64{85}, "better"},
		{higher, []float64{100}, []float64{85}, "worse"},
		{higher, []float64{100}, []float64{115}, "better"},
		{lower, []float64{100, 101, 99, 100}, []float64{80, 120, 100, 140}, "unresolved"},
		{lower, []float64{100}, nil, "missing"},
	} {
		if _, _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
	a := &report{Runs: map[string]*suiteRun{"w": {EndToEnd: map[string][]float64{}}}}
	b := &report{Runs: map[string]*suiteRun{"w": {EndToEnd: map[string][]float64{}}}}
	for _, d := range endToEnd {
		a.Runs["w"].EndToEnd[d.Name] = []float64{100}
		b.Runs["w"].EndToEnd[d.Name] = []float64{101}
	}
	if !compareReports(a, b) {
		t.Error("two reports 1% apart do not compare as the same")
	}
	b.Runs["w"].EndToEnd["write_p50_ms"] = []float64{200}
	if compareReports(a, b) {
		t.Error("a doubled latency compares as the same")
	}
}

// fakeService records what reaches it and answers with fixed values.
type fakeService struct {
	live.Service
	calls []string
	delta *storage.Delta
}

func (f *fakeService) Submit(d *storage.Delta) error {
	f.calls, f.delta = append(f.calls, "Submit"), d
	return live.ErrClosed
}

func (f *fakeService) Flush(context.Context) error {
	f.calls = append(f.calls, "Flush")
	return nil
}

func (f *fakeService) Solutions(_ context.Context, name string, limit int) ([][]string, uint64, error) {
	f.calls = append(f.calls, "Solutions")
	return [][]string{{name}}, uint64(limit), nil
}

func TestTracedServicePassesCallsThrough(t *testing.T) {
	for _, tr := range []*tracer{nil, newTracer()} {
		f := &fakeService{}
		var s live.Service = tracedService{Service: f, t: tr}
		d := storage.NewDelta().Add("r", "a", "b")
		if err := s.Submit(d); err != live.ErrClosed || f.delta != d {
			t.Fatalf("Submit: error %v, delta passed on unchanged: %v", err, f.delta == d)
		}
		if err := s.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		rows, version, err := s.Solutions(context.Background(), "q", 16)
		if err != nil || version != 16 || !reflect.DeepEqual(rows, [][]string{{"q"}}) {
			t.Fatalf("Solutions: %v %d %v", rows, version, err)
		}
		if want := []string{"Submit", "Flush", "Solutions"}; !reflect.DeepEqual(f.calls, want) {
			t.Fatalf("calls %v, want %v", f.calls, want)
		}
		if tr != nil && (len(tr.durations("live.Submit")) != 1 || len(tr.durations("live.Solutions")) != 1) {
			t.Fatal("the calls left no spans")
		}
	}
}

func TestTracedBackendPassesBytesThrough(t *testing.T) {
	mem := wal.NewMem()
	tr := newTracer()
	b := &tracedBackend{Backend: mem, t: tr}
	w, err := b.CreateSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := w.Write([]byte("record")); n != 6 || err != nil {
		t.Fatal(n, err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCheckpoint(1, func(w io.Writer) error { _, err := w.Write([]byte("snapshot")); return err }); err != nil {
		t.Fatal(err)
	}
	for what, open := range map[string]func(uint64) (io.ReadCloser, error){"record": mem.OpenSegment, "snapshot": mem.OpenCheckpoint} {
		r, err := open(1)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(r)
		if string(got) != what {
			t.Errorf("read back %q, want %q", got, what)
		}
	}
	if seg, ckpt := b.written(); seg != 6 || ckpt != 8 {
		t.Errorf("counted %d segment and %d checkpoint bytes, want 6 and 8", seg, ckpt)
	}
	for _, name := range []string{"wal.Write", "wal.Sync", "wal.WriteCheckpoint"} {
		if len(tr.durations(name)) != 1 {
			t.Errorf("no %s span", name)
		}
	}
}

func TestNaiveCountAgreesWithTheEngine(t *testing.T) {
	q, err := cq.ParseQuery("r(x,y), s(y,z), t(z,x), u(x,x)")
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if (i+j)%3 != 0 {
				db.Add("r", string(rune('a'+i)), string(rune('a'+j)))
				db.Add("s", string(rune('a'+j)), string(rune('a'+i)))
			}
			db.Add("t", string(rune('a'+i)), string(rune('a'+j)))
		}
		db.Add("u", string(rune('a'+i)), string(rune('a'+i)))
	}
	want, err := engine.NaiveCount(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := naiveCount(q, db, 1<<20); !ok || got != want || want == 0 {
		t.Fatalf("naiveCount = %d (finished %v), engine.NaiveCount = %d", got, ok, want)
	}
	if _, ok := naiveCount(q, db, 3); ok {
		t.Fatal("a budget of 3 candidate tuples was enough")
	}
}

// A miniature flush.closed: two queries, 200 closed-loop ops against the
// in-process store behind the wire server, then the full oracle.
func TestMiniatureFlushClosedPassesTheOracle(t *testing.T) {
	tiny := shapePath3
	tiny.background, tiny.planted, tiny.domain = 120, 40, 60
	liveSpecs["test.mini"] = liveSpec{shapes: []shape{tiny, shapeJigsaw}, readShare: flushReadShare}
	defer delete(liveSpecs, "test.mini")
	e, err := setupLive("test.mini", options{seed: 11, outDir: t.TempDir()}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for i := 0; i < 200; i++ {
		e.exec(time.Now(), true)
	}
	if !e.drain() {
		t.Fatalf("%d submits were never notified", e.m.outstanding())
	}
	out := newOutcome()
	if err := e.finish(context.Background(), out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted < 200 {
		t.Fatalf("%d of %d checks failed: %v", out.failed, out.attempted, out.notes)
	}
	if n := len(e.m.notify.sorted()); n == 0 {
		t.Fatal("no notification was matched to its submit")
	}
}

// BENCHMARK.json is the contract; the tables in main.go must say the same.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, harness has %v", names, workloads)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", b.PerLayer, perLayer)
	}
}
