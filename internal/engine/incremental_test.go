package engine

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// The differential harness: a BoundQuery maintained by Update through a
// random stream of insert/delete deltas must agree with a BoundQuery rebuilt
// from scratch (CompileDB + Bind) after every step, on Bool, Count and
// EnumerateAll alike. Failures shrink to a minimal failing delta script and
// report the seed, so a divergence is reproducible and small.

// diffOp is one tuple insertion or deletion in a delta script.
type diffOp struct {
	insert bool
	rel    string
	tuple  []string
}

func (o diffOp) String() string {
	verb := "delete"
	if o.insert {
		verb = "insert"
	}
	return fmt.Sprintf("%s %s(%s)", verb, o.rel, strings.Join(o.tuple, ","))
}

// diffStep is one Update call: a delta of one or more ops.
type diffStep []diffOp

// diffShape is one query shape of the differential test, with the relation
// schema the random stream draws from (a superset of the query's relations,
// so some deltas are invisible to the query).
type diffShape struct {
	name  string
	query string
	rels  map[string]int // relation name → arity
	opts  []Option       // engine options (e.g. force the naive plan)

	// maintained binds the maintained query with BindMaintained rather than
	// Bind, whose bottom-up reduced nodes the first Rebind must rebuild.
	maintained bool
}

// bindForms runs f once per form a maintained query can start from, as
// subtests named after the form.
func bindForms(t *testing.T, sh diffShape, f func(t *testing.T, sh diffShape)) {
	for _, maintained := range []bool{false, true} {
		name := "oneshot"
		if maintained {
			name = "maintained"
		}
		sh.maintained = maintained
		t.Run(name, func(t *testing.T) { f(t, sh) })
	}
}

var diffShapes = []diffShape{
	{
		name:  "path",
		query: "R(a,b), S(b,c), T(c,d)",
		rels:  map[string]int{"R": 2, "S": 2, "T": 2, "Zed": 2},
	},
	{
		name:  "triangle",
		query: "E(x,y), F(y,z), G(z,x)",
		rels:  map[string]int{"E": 2, "F": 2, "G": 2, "Zed": 1},
	},
	{
		name:  "selfjoin",
		query: "E(x,y), E(y,z)",
		rels:  map[string]int{"E": 2, "Zed": 2},
	},
	{
		name:  "const-repeat",
		query: "R(x,x), S(x,y), T(y,'c0')",
		rels:  map[string]int{"R": 2, "S": 2, "T": 2},
	},
	{
		name:  "star",
		query: "R(x,y), S(x,z), T(x,w)",
		rels:  map[string]int{"R": 2, "S": 2, "T": 2},
	},
	{
		// Two atoms over one variable set: the λ edge is their intersection,
		// so an atom's delta is not the edge's.
		name:  "same-varset",
		query: "R(x,y), S(x,y), T(y,z)",
		rels:  map[string]int{"R": 2, "S": 2, "T": 2},
	},
	{
		// Two components: the decomposition joins them by a cross product
		// (a tree edge sharing no column).
		name:  "disconnected",
		query: "R(a,b), S(c,d)",
		rels:  map[string]int{"R": 2, "S": 2, "Zed": 1},
	},
	{
		// Width 2 with bags that project the input join (derivation counts
		// above 1) and filter atoms joined in as inputs.
		name:  "cycle4",
		query: "A(a,b), B(b,c), C(c,d), D(d,a)",
		rels:  map[string]int{"A": 2, "B": 2, "C": 2, "D": 2},
	},
	{
		name:  "naive-triangle",
		query: "E(x,y), F(y,z), G(z,x)",
		rels:  map[string]int{"E": 2, "F": 2, "G": 2},
		opts:  []Option{WithMaxWidth(1), WithNaiveFallback()},
	},
}

// applyMirror applies one step to the plain cq.Database mirror with the
// Delta semantics (deletes first, set-based inserts), via the shared
// storage.Delta helper so the mirror can never drift from Apply.
func applyMirror(db cq.Database, step diffStep) {
	stepDelta(step).ApplyToDatabase(db)
}

func stepDelta(step diffStep) *storage.Delta {
	d := storage.NewDelta()
	for _, op := range step {
		if op.insert {
			d.Add(op.rel, op.tuple...)
		} else {
			d.Remove(op.rel, op.tuple...)
		}
	}
	return d
}

// compareBound checks incremental against reference on all three evaluation
// modes and returns a description of the first divergence ("" if none).
func compareBound(ctx context.Context, inc, ref *BoundQuery) string {
	ib, err := inc.Bool(ctx)
	if err != nil {
		return "incremental Bool: " + err.Error()
	}
	rb, err := ref.Bool(ctx)
	if err != nil {
		return "reference Bool: " + err.Error()
	}
	if ib != rb {
		return fmt.Sprintf("Bool: incremental %v, reference %v", ib, rb)
	}
	ic, err := inc.Count(ctx)
	if err != nil {
		return "incremental Count: " + err.Error()
	}
	rc, err := ref.Count(ctx)
	if err != nil {
		return "reference Count: " + err.Error()
	}
	if ic != rc {
		return fmt.Sprintf("Count: incremental %d, reference %d", ic, rc)
	}
	irel, idict, err := inc.EnumerateAll(ctx)
	if err != nil {
		return "incremental EnumerateAll: " + err.Error()
	}
	rrel, rdict, err := ref.EnumerateAll(ctx)
	if err != nil {
		return "reference EnumerateAll: " + err.Error()
	}
	if int64(irel.Len()) != ic {
		return fmt.Sprintf("incremental EnumerateAll yields %d rows but Count says %d", irel.Len(), ic)
	}
	if !EqualRelations(irel, idict, rrel, rdict) {
		return fmt.Sprintf("EnumerateAll: incremental %d rows differ from reference %d rows", irel.Len(), rrel.Len())
	}
	return ""
}

// runScript replays a delta script from scratch: it binds the query over the
// initial database (in sh's form), then Updates step by step, comparing
// against a fresh CompileDB+Bind after every step. It returns the index of the first
// diverging step (-1 for none) with the divergence description.
func runScript(t *testing.T, sh diffShape, q cq.Query, initial cq.Database, steps []diffStep) (int, string) {
	t.Helper()
	return runScriptOn(t, NewEngine(sh.opts...), sh, q, initial, steps)
}

// runScriptOn is runScript on a caller-supplied engine (whose Stats the
// caller wants to read afterwards). Besides the three evaluation modes,
// every step's DiffFrom against the previous snapshot — the recorded-delta
// path — is held to the materialise-both oracle.
func runScriptOn(t *testing.T, eng *Engine, sh diffShape, q cq.Query, initial cq.Database, steps []diffStep) (int, string) {
	t.Helper()
	ctx := context.Background()
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatalf("%s: Prepare: %v", sh.name, err)
	}
	mirror := initial.Clone()
	cdb, err := eng.CompileDB(ctx, mirror)
	if err != nil {
		t.Fatalf("%s: CompileDB: %v", sh.name, err)
	}
	bind := prep.Bind
	if sh.maintained {
		bind = prep.BindMaintained
	}
	inc, err := bind(ctx, cdb)
	if err != nil {
		t.Fatalf("%s: Bind: %v", sh.name, err)
	}
	for i, step := range steps {
		next, err := inc.Update(ctx, stepDelta(step))
		if err != nil {
			return i, "Update: " + err.Error()
		}
		ga, gr, err := next.DiffFrom(ctx, inc)
		if err != nil {
			return i, "DiffFrom: " + err.Error()
		}
		wa, wr, err := next.diffOracle(ctx, inc)
		if err != nil {
			return i, "diffOracle: " + err.Error()
		}
		if !slices.Equal(ga.Data, wa.Data) || !slices.Equal(gr.Data, wr.Data) {
			return i, fmt.Sprintf("DiffFrom: +%d/−%d rows, oracle +%d/−%d", ga.Len(), gr.Len(), wa.Len(), wr.Len())
		}
		inc = next
		applyMirror(mirror, step)
		refCDB, err := eng.CompileDB(ctx, mirror)
		if err != nil {
			return i, "reference CompileDB: " + err.Error()
		}
		ref, err := prep.Bind(ctx, refCDB)
		if err != nil {
			return i, "reference Bind: " + err.Error()
		}
		if desc := compareBound(ctx, inc, ref); desc != "" {
			return i, desc
		}
	}
	return -1, ""
}

// shrinkScript greedily removes steps while the script still diverges,
// returning a (locally) minimal failing script.
func shrinkScript(t *testing.T, sh diffShape, q cq.Query, initial cq.Database, steps []diffStep) []diffStep {
	t.Helper()
	cur := append([]diffStep(nil), steps...)
	for pass := 0; pass < 8; pass++ {
		removed := false
		for i := 0; i < len(cur); i++ {
			cand := append(append([]diffStep(nil), cur[:i]...), cur[i+1:]...)
			if at, _ := runScript(t, sh, q, initial, cand); at >= 0 {
				cur = cand
				removed = true
				i--
			}
		}
		// Then try thinning multi-op steps down to single ops.
		for i := 0; i < len(cur); i++ {
			for len(cur[i]) > 1 {
				slim := append([]diffOp(nil), cur[i][1:]...)
				cand := append([]diffStep(nil), cur...)
				cand[i] = slim
				if at, _ := runScript(t, sh, q, initial, cand); at < 0 {
					break
				}
				cur = cand
				removed = true
			}
		}
		if !removed {
			break
		}
	}
	return cur
}

func formatScript(steps []diffStep) string {
	var b strings.Builder
	for i, step := range steps {
		fmt.Fprintf(&b, "  step %d:", i)
		for _, op := range step {
			fmt.Fprintf(&b, " %s;", op)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// genStep draws one random delta: mostly single-op, sometimes a small batch,
// with inserts slightly favoured so the database neither empties nor
// explodes (the constant pool is small, so deletes hit real tuples often).
func genStep(rng *rand.Rand, sh diffShape, relNames []string) diffStep {
	nOps := 1
	if rng.Intn(10) == 0 {
		nOps = 2 + rng.Intn(2)
	}
	consts := []string{"c0", "c1", "c2", "c3", "c4"}
	step := make(diffStep, 0, nOps)
	for i := 0; i < nOps; i++ {
		rel := relNames[rng.Intn(len(relNames))]
		tuple := make([]string, sh.rels[rel])
		for j := range tuple {
			tuple[j] = consts[rng.Intn(len(consts))]
		}
		step = append(step, diffOp{insert: rng.Intn(10) < 6, rel: rel, tuple: tuple})
	}
	return step
}

// TestIncrementalDifferential is the main property test: ≥1k random update
// steps across the query shapes, incremental vs recompiled, zero divergence
// allowed. Override the seed with -incseed to reproduce a report.
func TestIncrementalDifferential(t *testing.T) {
	stepsPerShape := 250
	if testing.Short() {
		stepsPerShape = 60
	}
	for _, sh := range diffShapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			q, err := cq.ParseQuery(sh.query)
			if err != nil {
				t.Fatal(err)
			}
			relNames := make([]string, 0, len(sh.rels))
			for r := range sh.rels {
				relNames = append(relNames, r)
			}
			// Deterministic order for reproducibility (map iteration is not).
			for i := 1; i < len(relNames); i++ {
				for j := i; j > 0 && relNames[j] < relNames[j-1]; j-- {
					relNames[j], relNames[j-1] = relNames[j-1], relNames[j]
				}
			}
			bindForms(t, sh, func(t *testing.T, sh diffShape) {
				for _, seed := range []int64{*incSeed, *incSeed + 1, *incSeed + 2, *incSeed + 3} {
					rng := rand.New(rand.NewSource(seed))
					// Random non-empty initial database.
					initial := cq.Database{}
					for _, pre := range genStep(rng, sh, relNames) {
						if pre.insert {
							initial.Add(pre.rel, pre.tuple...)
						}
					}
					steps := make([]diffStep, stepsPerShape)
					for i := range steps {
						steps[i] = genStep(rng, sh, relNames)
					}
					at, desc := runScript(t, sh, q, initial, steps)
					if at < 0 {
						continue
					}
					minimal := shrinkScript(t, sh, q, initial, steps[:at+1])
					t.Fatalf("%s (seed %d): divergence at step %d: %s\nminimal failing script (%d steps):\n%s",
						sh.name, seed, at, desc, len(minimal), formatScript(minimal))
				}
			})
		})
	}
}

// incSeed reproduces a reported divergence: go test -run Differential -incseed N
var incSeed = flag.Int64("incseed", 1, "base seed of the incremental differential test")

// TestRebindSharesCleanState checks the copy-on-write contract: a delta
// against a relation the query never reads shares everything, and a
// single-relation delta keeps the other atoms' relations and the clean node
// relations pointer-identical.
func TestRebindSharesCleanState(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	q, err := cq.ParseQuery("R(a,b), S(b,c), T(c,d)")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	db.Add("R", "1", "2")
	db.Add("S", "2", "3")
	db.Add("T", "3", "4")
	db.Add("Unrelated", "x")
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	// Populate both caches.
	if _, err := b.Count(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.EnumerateAll(ctx); err != nil {
		t.Fatal(err)
	}

	// Delta invisible to the query: everything is shared, caches included.
	nb, err := b.Update(ctx, storage.NewDelta().Add("Unrelated", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if nb.inst != b.inst {
		t.Error("invisible delta should share the whole instance")
	}
	if nb.enumSt.Load() != b.enumSt.Load() || nb.countSt.Load() != b.countSt.Load() {
		t.Error("invisible delta should share the enum and count caches")
	}
	if nb.Database() == b.Database() {
		t.Error("Update must still move to the new snapshot")
	}

	// Delta on T only: R and S atom relations stay pointer-identical.
	nb2, err := b.Update(ctx, storage.NewDelta().Add("T", "3", "5"))
	if err != nil {
		t.Fatal(err)
	}
	if nb2.inst.AtomRels[2] == b.inst.AtomRels[2] {
		t.Error("dirty atom T should have a fresh relation")
	}
	if nb2.inst.AtomRels[0] != b.inst.AtomRels[0] || nb2.inst.AtomRels[1] != b.inst.AtomRels[1] {
		t.Error("clean atoms R and S should share their relations")
	}
	got, err := nb2.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 { // 1-2-3-4 and 1-2-3-5
		t.Errorf("Count after insert = %d, want 2", got)
	}
	// The old bound query still answers over the old snapshot.
	old, err := b.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if old != 1 {
		t.Errorf("old snapshot Count = %d, want 1", old)
	}
}

// TestRebindCarriesBindForm: a one-shot Bind holds bottom-up reduced nodes,
// which lack the dangling S(2,4); a Rebind over a delta the query never reads
// shares them, and must carry the record that they are reduced, so that the
// next Rebind rebuilds the cover-based bags rather than loading the reduced
// ones as node supports — after which T(4,6) makes S(2,4) a solution's.
func TestRebindCarriesBindForm(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	q, err := cq.ParseQuery("R(a,b), S(b,c), T(c,d)")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	db.Add("R", "1", "2")
	db.Add("S", "2", "3")
	db.Add("S", "2", "4") // dangling: no T(4,·)
	db.Add("T", "3", "5")
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := b.Update(ctx, storage.NewDelta().Add("Zed", "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if shared.inst != b.inst {
		t.Fatal("a delta on Zed alone should share the bound state")
	}
	nb, err := shared.Update(ctx, storage.NewDelta().Add("T", "4", "6"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := prep.Bind(ctx, nb.Database())
	if err != nil {
		t.Fatal(err)
	}
	got, err := nb.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || want != 2 {
		t.Errorf("Count after Zed, then T(4,6) = %d, fresh Bind = %d, want 2", got, want)
	}
}

// TestUpdateForksFromOneSnapshot: two different Updates forked from the
// same BoundQuery must not share mutable state — each fork patches its own
// copy of the support counts, and both agree with recompiles of their own
// logical databases.
func TestUpdateForksFromOneSnapshot(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	q, err := cq.ParseQuery("R(a,b), S(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	for i := 0; i < 16; i++ {
		db.Add("R", fmt.Sprint(i%4), fmt.Sprint((i+1)%4))
		db.Add("S", fmt.Sprint(i%4), fmt.Sprint((i+2)%4))
	}
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	base, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Count(ctx); err != nil { // populate caches on the base
		t.Fatal(err)
	}
	// Fork twice from the same base with different deltas, then keep
	// updating both forks so each patches its own cloned support state.
	forkA, err := base.Update(ctx, storage.NewDelta().Add("R", "7", "8").Add("S", "8", "9"))
	if err != nil {
		t.Fatal(err)
	}
	forkB, err := base.Update(ctx, storage.NewDelta().Remove("R", "0", "1").Add("S", "5", "6"))
	if err != nil {
		t.Fatal(err)
	}
	forkA, err = forkA.Update(ctx, storage.NewDelta().Add("R", "8", "5"))
	if err != nil {
		t.Fatal(err)
	}
	forkB, err = forkB.Update(ctx, storage.NewDelta().Add("R", "5", "5").Add("S", "5", "5"))
	if err != nil {
		t.Fatal(err)
	}
	mirrorA := db.Clone()
	applyMirror(mirrorA, diffStep{
		{insert: true, rel: "R", tuple: []string{"7", "8"}},
		{insert: true, rel: "S", tuple: []string{"8", "9"}},
		{insert: true, rel: "R", tuple: []string{"8", "5"}},
	})
	mirrorB := db.Clone()
	applyMirror(mirrorB, diffStep{
		{insert: false, rel: "R", tuple: []string{"0", "1"}},
		{insert: true, rel: "S", tuple: []string{"5", "6"}},
		{insert: true, rel: "R", tuple: []string{"5", "5"}},
		{insert: true, rel: "S", tuple: []string{"5", "5"}},
	})
	for name, pair := range map[string]struct {
		fork   *BoundQuery
		mirror cq.Database
	}{"A": {forkA, mirrorA}, "B": {forkB, mirrorB}} {
		refCDB, err := eng.CompileDB(ctx, pair.mirror)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := prep.Bind(ctx, refCDB)
		if err != nil {
			t.Fatal(err)
		}
		if desc := compareBound(ctx, pair.fork, ref); desc != "" {
			t.Fatalf("fork %s diverged: %s", name, desc)
		}
	}
}

// TestRebindForeignSnapshot: a snapshot that does not share the dictionary
// falls back to a full Bind and still answers correctly.
func TestRebindForeignSnapshot(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	q, err := cq.ParseQuery("R(a,b), S(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	db1 := cq.Database{}
	db1.Add("R", "1", "2")
	db1.Add("S", "2", "3")
	cdb1, err := eng.CompileDB(ctx, db1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prep.Bind(ctx, cdb1)
	if err != nil {
		t.Fatal(err)
	}
	db2 := cq.Database{}
	db2.Add("R", "x", "y")
	cdb2, err := eng.CompileDB(ctx, db2) // fresh dictionary
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.Rebind(ctx, cdb2)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := nb.Bool(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("foreign snapshot without S should be unsatisfiable")
	}
}

// TestUpdateCancelledContext: Update (and Rebind) with an already-cancelled
// context fail fast and leave the receiver fully usable.
func TestUpdateCancelledContext(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	q, err := cq.ParseQuery("R(a,b), S(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	db.Add("R", "1", "2")
	db.Add("S", "2", "3")
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := b.Update(cancelled, storage.NewDelta().Add("R", "9", "9")); err == nil {
		t.Error("Update with cancelled context should fail")
	}
	if _, err := b.Rebind(cancelled, cdb); err == nil {
		t.Error("Rebind with cancelled context should fail")
	}
	// Receiver unharmed.
	n, err := b.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("Count after cancelled Update = %d, want 1", n)
	}
}

// TestAtomDeltaFromTables pins the atom step of Rebind: the delta atomDelta
// reads off the old and the new table, applied to the old relation, gives
// exactly the rows of a full bindAtomRelation scan (selection by constants
// and repeated variables included) — one Apply later, twenty Applies later
// (there is no chain to run out of: the two row maps are diffed
// structurally), and across a delta that rewrites the table flat, which is
// the one case that rescans.
func TestAtomDeltaFromTables(t *testing.T) {
	atoms := []string{"R(x,y)", "R(y,x)", "R(x,x)", "R(x,'c1')", "R(x,y), Zed(x)"}
	db := cq.Database{}
	for i := 0; i < 12; i++ {
		db.Add("R", fmt.Sprintf("c%d", i%4), fmt.Sprintf("c%d", (i*3)%5))
	}
	deltas := []*storage.Delta{
		storage.NewDelta().Add("R", "c7", "c1"),                         // pure append
		storage.NewDelta().Remove("R", "c0", "c0"),                      // pure delete
		storage.NewDelta().Remove("R", "c1", "c1").Add("R", "c1", "x"),  // mixed, new constant
		storage.NewDelta().Remove("R", "zz", "zz"),                      // no-op delete (absent tuple)
		storage.NewDelta().Remove("R", "c7", "c1").Add("R", "c7", "c1"), // removed and re-added in one batch
	}
	ctx := context.Background()
	for _, src := range atoms {
		q, err := cq.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine()
		prep, err := eng.Prepare(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		plan, a := prep.plan, q.Atoms[0]
		// check runs atomDelta from one snapshot to a later one against a scan
		// of both, and returns which path it took.
		check := func(what string, from, to *storage.DB) (fast bool) {
			t.Helper()
			oldRel, err := bindAtomRelation(a, from.Table(a.Rel), from.Dict)
			if err != nil {
				t.Fatal(err)
			}
			want, err := bindAtomRelation(a, to.Table(a.Rel), to.Dict)
			if err != nil {
				t.Fatal(err)
			}
			old := setOfRows(oldRel)
			if plan.directAtom[0] {
				old = tableRows(from.Table(a.Rel), len(a.Args))
			}
			before := eng.Stats()
			d, set, flat, err := atomDelta(plan, 0, old, from.Table(a.Rel), to.Table(a.Rel), to.Dict, eng, &maintCtx{})
			if err != nil {
				t.Fatal(err)
			}
			if !patchesTo(oldRel, d, want) {
				t.Fatalf("%s %s: delta +%v -%v does not turn %v into the scan %v/%v", src, what, d.plus.Data, d.minus.Data, oldRel.Data, want.Cols, want.Data)
			}
			if set != nil && !diffRows(set, want).empty() {
				t.Fatalf("%s %s: successor set differs from the scan", src, what)
			}
			if flat != nil && !diffRows(setOfRows(flat), want).empty() {
				t.Fatalf("%s %s: scanned relation differs from the scan", src, what)
			}
			after := eng.Stats()
			if after.AtomDeltaFast+after.AtomDeltaScan != before.AtomDeltaFast+before.AtomDeltaScan+1 {
				t.Fatalf("%s %s: atomDelta must count exactly one path", src, what)
			}
			return after.AtomDeltaFast > before.AtomDeltaFast
		}
		base, err := storage.Compile(db)
		if err != nil {
			t.Fatal(err)
		}
		cur := base
		for di, delta := range deltas {
			next, err := cur.Apply(delta)
			if err != nil {
				t.Fatal(err)
			}
			if next.Table(a.Rel) != cur.Table(a.Rel) && !check(fmt.Sprintf("delta %d", di), cur, next) {
				t.Fatalf("%s delta %d: a small delta must be read off the row maps, not rescanned", src, di)
			}
			cur = next
		}
		// Twenty more Applies, then the diff against the very first table.
		for i := 0; i < 20; i++ {
			d := storage.NewDelta().Add("R", fmt.Sprintf("c%d", i%4), fmt.Sprintf("late%d", i))
			if i%3 == 2 {
				d.Remove("R", fmt.Sprintf("c%d", (i-1)%4), fmt.Sprintf("late%d", i-1))
			}
			if cur, err = cur.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
		if !check("25 applies late", base, cur) {
			t.Fatalf("%s: a late rebind over small deltas must still be read off the row maps", src)
		}
		// A delta the size of the relation rewrites the table flat: a
		// non-direct atom rescans it, a direct one still diffs the maps.
		bulk := storage.NewDelta()
		for i := 0; i < 64; i++ {
			bulk.Add("R", fmt.Sprintf("c%d", i%4), fmt.Sprintf("bulk%d", i))
		}
		next, err := cur.Apply(bulk)
		if err != nil {
			t.Fatal(err)
		}
		if fast := check("bulk", cur, next); fast != plan.directAtom[0] {
			t.Fatalf("%s bulk: fast=%v, want %v", src, fast, plan.directAtom[0])
		}
		// Emptied and gone: the new table is nil.
		gone := storage.NewDelta()
		for _, tuple := range next.RelationTuples("R") {
			gone.Remove("R", tuple...)
		}
		empty, err := next.Apply(gone)
		if err != nil {
			t.Fatal(err)
		}
		if empty.Table("R") != nil {
			t.Fatal("deleting every tuple must remove the relation")
		}
		check("emptied", next, empty)
		check("re-created", empty, base)
	}
}

// patchesTo reports whether d is an exact set delta from old's rows to
// want's: over the same columns, every leaving row present, every entering
// row absent, and the patched set equal to want's rows. Maintained atoms keep
// sets, not row order, so this is set equality.
func patchesTo(old *Relation, d *relDelta, want *Relation) bool {
	if !sameStrings(d.plus.Cols, want.Cols) || !sameStrings(d.minus.Cols, want.Cols) {
		return false
	}
	set := setOfRows(old).Edit()
	for i := 0; i < d.minus.Len(); i++ {
		if !set.Has(d.minus.Row(i)) {
			return false
		}
		set.Delete(d.minus.Row(i))
	}
	for i := 0; i < d.plus.Len(); i++ {
		if set.Has(d.plus.Row(i)) {
			return false
		}
		set.Set(d.plus.Row(i), struct{}{})
	}
	return diffRows(set.Freeze(), want).empty()
}

// scripted builds a step list from "±Rel(a,b)" ops; ops joined by spaces form
// one batch.
func scripted(steps ...string) []diffStep {
	var out []diffStep
	for _, batch := range steps {
		var step diffStep
		for _, op := range strings.Fields(batch) {
			open := strings.IndexByte(op, '(')
			step = append(step, diffOp{
				insert: op[0] == '+',
				rel:    op[1:open],
				tuple:  strings.Split(op[open+1:len(op)-1], ","),
			})
		}
		out = append(out, step)
	}
	return out
}

// TestIncrementalScriptedCases replays the update patterns a carried delta
// can get wrong where a recomputed one could not, each held step by step to
// a from-scratch Bind (Bool, Count, EnumerateAll) and to the diff oracle.
func TestIncrementalScriptedCases(t *testing.T) {
	path := diffShape{name: "path", query: "R(a,b), S(b,c), T(c,d)"}
	pathDB := func() cq.Database {
		db := cq.Database{}
		db.Add("R", "1", "2")
		db.Add("R", "5", "2")
		db.Add("S", "2", "3")
		db.Add("T", "3", "4")
		db.Add("T", "3", "9")
		return db
	}
	cases := []struct {
		name  string
		shape diffShape
		db    cq.Database
		steps []diffStep
	}{
		{
			// A relation drained to nothing and filled again: every node
			// empties and every key's presence flips both ways.
			name: "delete-to-empty-then-reinsert", shape: path, db: pathDB(),
			steps: scripted("-S(2,3)", "-R(1,2)", "-R(5,2)", "-T(3,4)", "-T(3,9)",
				"+T(3,4)", "+R(5,2)", "+S(2,3)", "+R(1,2)", "+T(3,9)"),
		},
		{
			// One batch removing and adding in the same relation — a different
			// tuple, the same tuple (a new table with the old content: no
			// change), and a tuple that is not there.
			name: "add-and-remove-in-one-batch", shape: path, db: pathDB(),
			steps: scripted("-R(1,2) +R(7,2)", "-S(2,3) +S(2,3)", "-T(3,4) +T(3,4) -T(3,9)",
				"-R(8,8) +R(1,2)", "+S(2,5) -S(2,3) +T(5,6)"),
		},
		{
			// The edge over {x,y} is R ∩ S: a tuple entering R enters the
			// edge only if S has it, and leaves with either.
			name: "two-atoms-one-varset", shape: diffShape{name: "same-varset", query: "R(x,y), S(x,y), T(y,z)"},
			db: func() cq.Database {
				db := cq.Database{}
				db.Add("R", "1", "2")
				db.Add("S", "3", "2")
				db.Add("T", "2", "4")
				return db
			}(),
			steps: scripted("+S(1,2)", "+R(3,2)", "-R(1,2)", "-S(3,2) +S(1,2)", "+R(1,2) +R(9,9)", "-T(2,4)", "+T(2,4) -S(1,2)"),
		},
		{
			// Constants select and repeated variables equate: most table
			// deltas are invisible to the atom, some only to one of two atoms
			// over the same relation.
			name: "constants-and-repeats", shape: diffShape{name: "const-repeat", query: "R(x,x), S(x,y), R(y,'k')"},
			db: func() cq.Database {
				db := cq.Database{}
				db.Add("R", "a", "a")
				db.Add("S", "a", "b")
				return db
			}(),
			steps: scripted("+R(b,k)", "+R(a,b)", "+R(k,k) +S(k,k)", "-R(a,a)", "+R(a,a) -R(b,k)", "+R(b,k) +S(a,k)", "-R(k,k)"),
		},
		{
			// A variable-free atom makes a nullary relation, which the plan
			// does not maintain: Rebind binds afresh.
			name: "ground-atom", shape: diffShape{name: "ground-atom", query: "R(x,y), S(y,z), G('k','k')"},
			db: func() cq.Database {
				db := cq.Database{}
				db.Add("R", "1", "2")
				db.Add("S", "2", "3")
				return db
			}(),
			steps: scripted("+G(k,k)", "+R(4,2)", "+G(k,j)", "-G(k,k)", "+G(k,k) -S(2,3)", "+S(2,3) +S(2,7)", "-G(k,j)"),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := cq.ParseQuery(c.shape.query)
			if err != nil {
				t.Fatal(err)
			}
			bindForms(t, c.shape, func(t *testing.T, sh diffShape) {
				if at, desc := runScript(t, sh, q, c.db, c.steps); at >= 0 {
					t.Fatalf("divergence at step %d (%v): %s", at, c.steps[at], desc)
				}
			})
		})
	}
}

// TestIncrementalLargeDeltaFallsBack: a delta larger than the relations it
// lands in goes back to rescanning the atom and re-materialising the nodes —
// the cost model's rebuild side — in the middle of a stream of small deltas,
// and the maintained state it leaves behind keeps patching correctly. The bulk
// lands in D(d,a), whose relation is a column permutation of the table (an
// atom that IS its table diffs the row maps even then).
func TestIncrementalLargeDeltaFallsBack(t *testing.T) {
	sh := diffShape{name: "cycle4", query: "A(a,b), B(b,c), C(c,d), D(d,a)"}
	q, err := cq.ParseQuery(sh.query)
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	for i := 0; i < 6; i++ {
		for _, rel := range []string{"A", "B", "C", "D"} {
			db.Add(rel, fmt.Sprint(i%3), fmt.Sprint((i+1)%3))
		}
	}
	var bulk diffStep
	for i := 0; i < 60; i++ {
		bulk = append(bulk, diffOp{insert: true, rel: "D", tuple: []string{fmt.Sprint(i % 8), fmt.Sprint(i / 8)}})
	}
	bulk = append(bulk, diffOp{rel: "D", tuple: []string{"0", "1"}})
	steps := scripted("+A(7,7)", "-B(0,1)")
	steps = append(steps, bulk)
	steps = append(steps, scripted("+B(0,1)", "-A(7,7) +C(7,0)", "-A(1,2)")...)
	eng := NewEngine()
	if at, desc := runScriptOn(t, eng, sh, q, db, steps); at >= 0 {
		t.Fatalf("divergence at step %d (%v): %s", at, steps[at], desc)
	}
	prep, err := eng.Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.AtomDeltaScan == 0 {
		t.Error("the bulk delta never took the atom rescan path")
	}
	// The first maintenance converts every node once; rebuilds beyond that
	// are the fallback.
	if nodes := uint64(prep.Plan().Decomp().Nodes()); st.NodeRebuilds <= nodes {
		t.Errorf("the bulk delta never took the node rebuild path (%d rebuilds, %d of them the conversion)", st.NodeRebuilds, nodes)
	}
}

// TestRecordedDeltasDoNotPinPredecessors: a snapshot names the state its
// recorded deltas are against by number, not by pointer, so an early snapshot
// of a long Update chain is collectable while the chain's head is alive.
func TestRecordedDeltasDoNotPinPredecessors(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	q, err := cq.ParseQuery("R(a,b), S(b,c), T(c,d)")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	db := cq.Database{}
	for i := 0; i < 40; i++ {
		db.Add("R", fmt.Sprint(i), fmt.Sprint(i%5))
		db.Add("S", fmt.Sprint(i%5), fmt.Sprint(i%7))
		db.Add("T", fmt.Sprint(i%7), fmt.Sprint(i))
	}
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Count(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cur.Enumerate(ctx, func(Solution) bool { return false }); err != nil {
		t.Fatal(err)
	}
	var collected atomic.Int32 // the early BoundQuery, and the reduction state it carried
	for i := 0; i < 10_000; i++ {
		d := storage.NewDelta()
		if i%2 == 0 {
			d.Add("S", "x", fmt.Sprint(i%7))
		} else {
			d.Remove("S", "x", fmt.Sprint((i-1)%7))
		}
		next, err := cur.Update(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := next.DiffFrom(ctx, cur); err != nil {
			t.Fatal(err)
		}
		if i == 1 { // an early, already maintained snapshot
			runtime.AddCleanup(cur, func(struct{}) { collected.Add(1) }, struct{}{})
			runtime.AddCleanup(cur.enumSt.Load(), func(struct{}) { collected.Add(1) }, struct{}{})
		}
		cur = next
	}
	for tries := 0; tries < 50 && collected.Load() < 2; tries++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if collected.Load() < 2 {
		t.Fatal("an early snapshot is still reachable from the head of the Update chain")
	}
	if n, err := cur.Count(ctx); err != nil || n == 0 {
		t.Fatalf("head of the chain: Count = %d, %v", n, err)
	}
}

// TestRebindManyAppliesLate: a query that sat out forty small Applies (a cold
// query in a busy store) rebinds to the newest snapshot off the row maps alone
// — no table is rescanned and no node rebuilt, however many Applies lie in
// between: there is no recorded chain to run out of — and its DiffFrom against
// the snapshot it sat on, forty Applies back, is byte-identical to the
// materialise-both oracle. DiffFrom of a query the Applies never reached
// returns the plan's shared empty relations and allocates nothing.
func TestRebindManyAppliesLate(t *testing.T) {
	ctx := context.Background()
	f := newMaintFixture(t, maintPath3, 400, 200)
	f.warm(t)
	start := f.bound
	cdb := start.Database()
	for k := 0; k < 40; k++ {
		d := storage.NewDelta()
		i := k % len(maintPath3.atoms)
		if k%4 < 2 {
			d.Remove(maintPath3.rel(i), maintPath3.plantedTuple(1+k/2, i)...)
		} else {
			d.Add(maintPath3.rel(i), fmt.Sprint("late", k), fmt.Sprint("late", k+1))
		}
		var err error
		if cdb, err = cdb.Apply(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	before := f.eng.Stats()
	late, err := start.Rebind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	after := f.eng.Stats()
	if after.AtomDeltaScan != before.AtomDeltaScan || after.NodeRebuilds != before.NodeRebuilds || after.AtomDeltaFast == before.AtomDeltaFast {
		t.Fatalf("late Rebind left the delta path: scans %d→%d, rebuilds %d→%d, fast %d→%d",
			before.AtomDeltaScan, after.AtomDeltaScan, before.NodeRebuilds, after.NodeRebuilds, before.AtomDeltaFast, after.AtomDeltaFast)
	}
	fresh, err := late.prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := late.EnumerateAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fresh.EnumerateAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, "late rebind vs fresh bind", got, want)
	ga, gr, err := late.DiffFrom(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	wa, wr, err := late.diffOracle(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, "added since 40 applies ago", ga, wa)
	requireSameRelation(t, "removed since 40 applies ago", gr, wr)
	if ga.Len()+gr.Len() == 0 {
		t.Fatal("the forty Applies were meant to change the result")
	}

	// An Apply that misses the query entirely.
	other, err := cdb.Apply(ctx, storage.NewDelta().Add("unrelated", "x"))
	if err != nil {
		t.Fatal(err)
	}
	same, err := late.Rebind(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a, r, err := same.DiffFrom(ctx, late)
		if err != nil || a.Len()+r.Len() != 0 {
			t.Fatalf("invisible delta: diff %d rows, %v", a.Len()+r.Len(), err)
		}
	}); allocs != 0 {
		t.Fatalf("DiffFrom across an invisible delta allocates %.0f times, want 0", allocs)
	}
	if f.eng.Stats().ApplyRowsTouched == 0 {
		t.Fatal("ApplyRowsTouched did not move")
	}
}

// TestMaintRowsTouchedScaling is the complexity claim as a count, not a
// timing: one result-changing tuple deleted and one inserted on path3 touch
// (hash, probe or copy) about as many rows at 32 000 rows per relation as at
// 2 000 — the relations grow 16×, the work may grow by at most half (the
// persistent maps deepen by a level). Before deltas were carried, the count
// grew with the relations.
func TestMaintRowsTouchedScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 32 000-row fixture")
	}
	touched := func(rows int) uint64 {
		f := newMaintFixture(t, maintPath3, rows, rows/2)
		f.warm(t)
		before := f.eng.Stats()
		for i := range maintPath3.atoms {
			for _, insert := range []bool{false, true} {
				if f.maintain(t, f.apply(t, 1, i, insert)) != 1 {
					t.Fatal("toggling a planted tuple must change exactly one result row")
				}
			}
		}
		after := f.eng.Stats()
		if after.NodeRebuilds != before.NodeRebuilds || after.AtomDeltaScan != before.AtomDeltaScan || after.DiffsOracle != before.DiffsOracle {
			t.Fatalf("%d rows: the measured updates left the delta path", rows)
		}
		return after.MaintRowsTouched - before.MaintRowsTouched
	}
	small, large := touched(2_000), touched(32_000)
	t.Logf("rows touched by 6 one-tuple updates: %d at 2 000 rows/relation, %d at 32 000", small, large)
	if small == 0 {
		t.Fatal("MaintRowsTouched did not move")
	}
	if 2*large > 3*small {
		t.Fatalf("rows touched grew %d → %d (%.2f×) while the relations grew 16×; want ≤ 1.5×",
			small, large, float64(large)/float64(small))
	}
}
