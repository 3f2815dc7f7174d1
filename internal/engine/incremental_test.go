package engine

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"d2cq/internal/bitset"
	"d2cq/internal/cq"
	"d2cq/internal/decomp"
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
	name   string
	query  string
	rels   map[string]int // relation name → arity
	consts int            // how many of the constants c0 … c4 the stream draws from (0: all five)

	// maintained starts the script from Bind's maintained successor after a
	// round trip (roundTrip) rather than from Bind itself, so its first step
	// is a steady-state Rebind instead of the one that builds the maintained
	// form.
	maintained bool
	// naive also holds every step's EnumerateAll to NaiveEnumerate over the
	// mirrored database.
	naive bool
}

// bindForms runs f once per state a maintained query can start from — a
// fresh Bind ("oneshot") and its maintained successor ("maintained") — as
// subtests named after the state.
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
		// Width 2 whose covers a0 × a_k share no variable: every node below
		// the root is a forced cross product of its cover, connected only by
		// its child's message.
		name:  "cycle6",
		query: "A(a,b), B(b,c), C(c,d), D(d,e), E(e,f), F(f,a)",
		rels:  map[string]int{"A": 2, "B": 2, "C": 2, "D": 2, "E": 2, "F": 2},
	},
	{
		// Unary atoms planned as leaves below the nodes they are assigned
		// to: each is enforced once, at its leaf, and its changes reach the
		// parent only through the leaf's key set.
		name:  "unary-leaves",
		query: "R(x,y), U(x), S(y,z), V(z)",
		rels:  map[string]int{"R": 2, "U": 1, "S": 2, "V": 1},
	},
	{
		// No variables: one node with an empty bag and cover, every atom a
		// nullary filter at it, and the result the empty tuple or nothing.
		// Drawn from c0 and c1 alone, so that the stream flips the result.
		name:   "ground",
		query:  "E('c0','c1'), F('c1')",
		rels:   map[string]int{"E": 2, "F": 1},
		consts: 2,
		naive:  true,
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
	return compareNodes(inc, ref)
}

// decodeNode decodes b's state at node u through b's dictionary: B(u) as a set
// of rows and, for a non-root node, its counting sum per parent key (the key
// of a node sharing no column with its parent is ""). A maintained query
// reads its maintained nodes, and checks on the way that each of their
// groupings holds every row of B(u) once, under the row's own key; any other
// reads Bind's flat relations and messages. It returns a description of a
// broken grouping, or "".
func decodeNode(b *BoundQuery, u int) (rows map[string]bool, sums map[string]int64, broken string) {
	p, dict := b.prep.plan, b.Dict()
	enc := func(t []Value) string {
		var sb strings.Builder
		for _, v := range t {
			sb.WriteString(dict.Name(v))
			sb.WriteByte(0)
		}
		return sb.String()
	}
	rows, sums = map[string]bool{}, map[string]int64{}
	if b.maint == nil {
		rel := b.enumSt.rels[u]
		for i := 0; i < rel.Len(); i++ {
			rows[enc(rel.Row(i))] = true
		}
		if msg := b.countSt.groups[u].keys; msg != nil {
			for s := int32(0); int(s) < msg.Len(); s++ {
				if v := msg.Val(s); v != 0 {
					sums[enc(msg.Key(s))] = v
				}
			}
		}
		return rows, sums, ""
	}
	ns := b.maint.nodes[u]
	ns.sup.Range(func(t []Value, _ int64) bool {
		rows[enc(t)] = true
		return true
	})
	// partition checks that a grouping on the columns at pos holds B(u).
	partition := func(what string, pos []int, each func(f func(key, bucket []Value))) {
		seen := 0
		a := len(p.bagVars[u])
		each(func(key, bucket []Value) {
			for i := 0; i+a <= len(bucket); i += a {
				row := bucket[i : i+a]
				if !rows[enc(row)] || enc(project(make([]Value, len(pos)), row, pos)) != enc(key) {
					broken = fmt.Sprintf("node %d: %s holds a row %q under key %q", u, what, enc(row), enc(key))
				}
				seen++
			}
		})
		if broken == "" && seen != len(rows) {
			broken = fmt.Sprintf("node %d: %s holds %d rows, B(u) %d", u, what, seen, len(rows))
		}
	}
	switch {
	case ns.byParent != nil:
		partition("byParent", p.sharedPos[u], func(f func(key, bucket []Value)) {
			ns.byParent.Range(func(key []Value, g keyGroup) bool {
				sums[enc(key)] = g.sum
				f(key, g.rows)
				return true
			})
		})
	case p.d.Parent[u] >= 0 && ns.sum != 0:
		sums[""] = ns.sum
	}
	for k, ix := range ns.up {
		if ix != nil {
			partition(fmt.Sprintf("up[%d]", k), p.childJoins[u][k].uPos, func(f func(key, bucket []Value)) {
				ix.Range(func(key, bucket []Value) bool {
					f(key, bucket)
					return true
				})
			})
		}
	}
	return rows, sums, broken
}

// compareNodes checks inc against ref node by node, through decoded
// constants (the two have dictionaries of their own): every node's B(u)
// must be the reference's, and every non-root node's per-key sums its
// message's non-zero entries — the state a sum drifting at a key that no
// parent row joins, which no answer shows, breaks. It returns a description
// of the first divergence ("" if none).
func compareNodes(inc, ref *BoundQuery) string {
	p := inc.prep.plan
	for u := 0; u < p.d.Nodes(); u++ {
		irows, isums, broken := decodeNode(inc, u)
		if broken != "" {
			return broken
		}
		rrows, rsums, _ := decodeNode(ref, u)
		if !maps.Equal(irows, rrows) {
			return fmt.Sprintf("node %d: B(u) has %d rows, reference %d (or other rows)", u, len(irows), len(rrows))
		}
		if !maps.Equal(isums, rsums) {
			return fmt.Sprintf("node %d: per-key sums %q, reference %q", u, isums, rsums)
		}
	}
	return ""
}

// runScript replays a delta script from scratch: it binds the query over the
// initial database (in sh's form), then Updates step by step, comparing
// against a fresh CompileDB+Bind after every step. It returns the index of the first
// diverging step (-1 for none) with the divergence description.
func runScript(t *testing.T, sh diffShape, q cq.Query, initial cq.Database, steps []diffStep) (int, string) {
	t.Helper()
	return runScriptOn(t, NewEngine(), sh, q, initial, steps)
}

// runScriptOn is runScript on a caller-supplied engine (whose Stats the
// caller wants to read afterwards).
func runScriptOn(t *testing.T, eng *Engine, sh diffShape, q cq.Query, initial cq.Database, steps []diffStep) (int, string) {
	t.Helper()
	prep, err := eng.Prepare(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: Prepare: %v", sh.name, err)
	}
	return runPrepared(t, prep, sh, initial, steps)
}

// runPrepared is runScript on a caller-supplied prepared query. Besides the
// three evaluation modes, every step's DiffFrom against the previous
// snapshot — the recorded-delta path — is held to the materialise-both
// oracle.
func runPrepared(t *testing.T, prep *PreparedQuery, sh diffShape, initial cq.Database, steps []diffStep) (int, string) {
	t.Helper()
	ctx := context.Background()
	eng, q := prep.eng, prep.Query()
	mirror := initial.Clone()
	cdb, err := eng.CompileDB(ctx, mirror)
	if err != nil {
		t.Fatalf("%s: CompileDB: %v", sh.name, err)
	}
	inc, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatalf("%s: Bind: %v", sh.name, err)
	}
	if sh.maintained {
		if inc, err = roundTrip(ctx, inc, mirror); err != nil {
			return 0, "round trip: " + err.Error()
		}
		ref, err := prep.Bind(ctx, cdb)
		if err != nil {
			t.Fatalf("%s: Bind: %v", sh.name, err)
		}
		if desc := compareBound(ctx, inc, ref); desc != "" {
			return 0, "after the round trip: " + desc
		}
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
		for _, a := range q.Atoms {
			if tab := next.cdb.sdb.Table(a.Rel); tab != nil && tab.Flat() && tab != cdb.sdb.Table(a.Rel) {
				return i, fmt.Sprintf("relation %s is flat after a delta", a.Rel)
			}
		}
		if sh.naive {
			if desc := compareNaive(ctx, inc, q, mirror); desc != "" {
				return i, desc
			}
		}
	}
	return -1, ""
}

// compareNaive checks b's EnumerateAll against NaiveEnumerate over db and
// returns a description of the divergence ("" if none).
func compareNaive(ctx context.Context, b *BoundQuery, q cq.Query, db cq.Database) string {
	got, gdict, err := b.EnumerateAll(ctx)
	if err != nil {
		return "EnumerateAll: " + err.Error()
	}
	want, wdict, err := NaiveEnumerate(q, db)
	if err != nil {
		return "NaiveEnumerate: " + err.Error()
	}
	if !EqualRelations(got, gdict, want, wdict) {
		return fmt.Sprintf("EnumerateAll: %d rows differ from NaiveEnumerate's %d rows", got.Len(), want.Len())
	}
	return ""
}

// roundTrip returns b's maintained successor over the same data: one Update
// deleting a tuple of every relation the query reads that has one in db (b's
// database), and one restoring them.
func roundTrip(ctx context.Context, b *BoundQuery, db cq.Database) (*BoundQuery, error) {
	del, add := storage.NewDelta(), storage.NewDelta()
	for _, a := range b.Query().Atoms {
		if tuples := db[a.Rel]; len(tuples) > 0 {
			del.Remove(a.Rel, tuples[0]...)
			add.Add(a.Rel, tuples[0]...)
		}
	}
	mid, err := b.Update(ctx, del)
	if err != nil {
		return nil, err
	}
	return mid.Update(ctx, add)
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
	consts := []string{"c0", "c1", "c2", "c3", "c4"}[:cmp.Or(sh.consts, 5)]
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

// incSeed reproduces a reported divergence:
// go test ./internal/engine -run Differential -incseed N
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
	if nb.enumSt != b.enumSt || nb.countSt != b.countSt {
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
	nb3, err := nb2.Update(ctx, storage.NewDelta().Add("T", "3", "6"))
	if err != nil {
		t.Fatal(err)
	}
	if nb3.maint.atoms[2] == nb2.maint.atoms[2] {
		t.Error("dirty atom T should have a fresh maintained state")
	}
	if nb3.maint.atoms[0] != nb2.maint.atoms[0] || nb3.maint.atoms[1] != nb2.maint.atoms[1] {
		t.Error("clean atoms R and S should share their maintained state")
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
// structurally), and across a delta larger than the table, which Apply
// applies to the row map like any other.
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
		// of both.
		check := func(what string, from, to *storage.DB) {
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
			d, set, err := atomDelta(plan, 0, old, from.Table(a.Rel), to.Table(a.Rel), to.Dict, eng, &maintCtx{})
			if err != nil {
				t.Fatal(err)
			}
			if !patchesTo(oldRel, d, want) {
				t.Fatalf("%s %s: delta +%v -%v does not turn %v into the scan %v/%v", src, what, d.plus.Data, d.minus.Data, oldRel.Data, want.Cols, want.Data)
			}
			if set != nil && !diffRows(set, want).empty() {
				t.Fatalf("%s %s: successor set differs from the scan", src, what)
			}
			if eng.Stats().AtomDeltaFast != before.AtomDeltaFast+1 {
				t.Fatalf("%s %s: atomDelta must count exactly one diff off the row maps", src, what)
			}
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
			if next.Table(a.Rel) != cur.Table(a.Rel) {
				check(fmt.Sprintf("delta %d", di), cur, next)
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
		check("25 applies late", base, cur)
		// A delta the size of the relation edits the row map like any other:
		// the new table is persistent and every atom reads its delta off the
		// two row maps.
		bulk := storage.NewDelta()
		for i := 0; i < 64; i++ {
			bulk.Add("R", fmt.Sprintf("c%d", i%4), fmt.Sprintf("bulk%d", i))
		}
		next, err := cur.Apply(bulk)
		if err != nil {
			t.Fatal(err)
		}
		if next.Table(a.Rel).Flat() {
			t.Fatalf("%s bulk: Apply left the table flat", src)
		}
		check("bulk", cur, next)
		// Emptied and gone: the new table is nil.
		gone := storage.NewDelta()
		next.Table("R").Scan(func(row []Value) {
			tuple := make([]string, len(row))
			for i, v := range row {
				tuple[i] = next.Dict.Name(v)
			}
			gone.Remove("R", tuple...)
		})
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
	if !slices.Equal(d.plus.Cols, want.Cols) || !slices.Equal(d.minus.Cols, want.Cols) {
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

// diffRows is the delta that turns the key set of old into the rows of rel,
// by two whole-relation passes: the reference the maintained sets are
// checked against.
func diffRows[V any](old *storage.PMap[V], rel *Relation) *relDelta {
	d := newRelDelta(rel.Cols)
	now := storage.NewTupleMap(len(rel.Cols), rel.Len())
	for i := 0; i < rel.Len(); i++ {
		now.Insert(rel.Row(i))
		if !old.Has(rel.Row(i)) {
			d.plus.Add(rel.Row(i)...)
		}
	}
	old.Range(func(row []Value, _ V) bool {
		if now.Find(row) < 0 {
			d.minus.Add(row...)
		}
		return true
	})
	return d
}

// scripted builds a step list from "±Rel(a,b)" ops; ops joined by spaces form
// one batch.
func scripted(steps ...string) []diffStep {
	var out []diffStep
	for _, batch := range steps {
		var step diffStep
		for _, op := range strings.Fields(batch) {
			open := strings.IndexByte(op, '(')
			var tuple []string
			if args := op[open+1 : len(op)-1]; args != "" {
				tuple = strings.Split(args, ",")
			}
			step = append(step, diffOp{insert: op[0] == '+', rel: op[1:open], tuple: tuple})
		}
		out = append(out, step)
	}
	return out
}

// TestIncrementalScriptedCases replays the update patterns a carried delta
// can get wrong where a recomputed one could not, each held step by step to
// a from-scratch Bind (Bool, Count, EnumerateAll), to NaiveEnumerate and to
// the diff oracle, with every DiffFrom on the incremental path.
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
			// Two constants and a repeat select from one table: a row enters
			// the atom only if it matches all three, so rows matching one
			// constant, both, or the repeat alone come and go unseen. The
			// first Bind scans the compiled (flat) T; every step's delta is
			// smaller than T, so each fresh Bind after it scans a persistent T.
			name: "two-constants", shape: diffShape{name: "two-constants", query: "T(x,'k',x,'m'), S(x,y)"},
			db: func() cq.Database {
				db := cq.Database{}
				db.Add("T", "1", "k", "1", "m") // matches
				db.Add("T", "2", "k", "3", "m") // both constants, not the repeat
				db.Add("T", "4", "k", "4", "n") // the first constant and the repeat
				db.Add("T", "5", "j", "5", "m") // the second constant and the repeat
				db.Add("T", "6", "j", "6", "n") // the repeat only
				db.Add("T", "7", "k", "8", "n") // the first constant only
				for _, x := range []string{"1", "2", "4", "5", "6", "9"} {
					db.Add("S", x, "y"+x)
				}
				return db
			}(),
			steps: scripted("+T(9,k,9,m)", "+T(9,j,9,m)", "+T(9,k,9,n)", "+T(9,k,2,m)", "-T(1,k,1,m)",
				"-T(4,k,4,n) +T(4,k,4,m)", "-T(5,j,5,m) +T(5,k,5,m) -S(9,y9)", "+T(1,k,1,m) -T(9,k,9,m) -T(4,k,4,m)",
				"+T(6,k,6,m) -T(6,j,6,n)", "-T(2,k,3,m) +T(2,k,2,m) +S(9,y9)"),
		},
		{
			// A variable-free atom is a nullary filter: its relation holds the
			// empty tuple while G(k,k) is in G, and G(k,j) matches nothing.
			// Flipping it empties or fills every node it filters at once.
			name: "ground-atom", shape: diffShape{name: "ground-atom", query: "R(x,y), S(y,z), G('k','k')"},
			db: func() cq.Database {
				db := cq.Database{}
				db.Add("R", "1", "2")
				db.Add("S", "2", "3")
				return db
			}(),
			steps: scripted("+G(k,k)", "+R(4,2)", "+G(k,j)", "-G(k,k)", "+G(k,k) -S(2,3)", "+S(2,3) +S(2,7)", "-G(k,j)"),
		},
		{
			// A nullary atom's relation is its table's, the empty tuple while
			// the fact G() holds.
			name: "nullary-atom", shape: diffShape{name: "nullary-atom", query: "R(x,y), S(y,z), G()"},
			db: func() cq.Database {
				db := cq.Database{}
				db.Add("R", "1", "2")
				db.Add("S", "2", "3")
				return db
			}(),
			steps: scripted("+G()", "+R(4,2)", "-G()", "+S(2,7)", "+G() -S(2,3)", "-R(1,2) -R(4,2)", "+R(1,2)", "-G()"),
		},
		{
			// The plan roots the path at T, with R's node a leaf two levels
			// below: deleting R(1,2) empties key b=2 of R's key set, then key
			// c=3 of S's and key d=4 of T's rows, one level at a time up to
			// the root, and reinserting it restores every one.
			name: "cascade-to-root", shape: diffShape{name: "path4", query: "R(a,b), S(b,c), T(c,d), U(d,e)"},
			db: func() cq.Database {
				db := cq.Database{}
				for _, chain := range [][]string{{"1", "2", "3", "4", "5"}, {"6", "7", "8", "9", "10"}} {
					for i, rel := range []string{"R", "S", "T", "U"} {
						db.Add(rel, chain[i], chain[i+1])
					}
				}
				return db
			}(),
			steps: scripted("-R(1,2)", "+R(1,2)", "-U(9,10)", "+U(9,10)", "-R(1,2) -R(6,7)", "+R(6,7)", "+R(1,2)"),
		},
		{
			// Two components: the child shares no column with the root, so its
			// key set is nullary. Emptying the child flips it to absent, which
			// empties the root; reinserting one tuple flips it back. Emptying
			// the root's own relation leaves the key set as it is.
			name: "nullary-key-set", shape: diffShape{name: "disconnected", query: "R(a,b), S(c,d)"},
			db: func() cq.Database {
				db := cq.Database{}
				db.Add("R", "1", "2")
				db.Add("R", "3", "4")
				db.Add("S", "5", "6")
				db.Add("S", "7", "8")
				return db
			}(),
			steps: scripted("-S(5,6) -S(7,8)", "+S(7,8)", "-R(1,2)", "-R(3,4)", "+S(5,6)", "+R(3,4)", "-S(7,8) +R(1,2)"),
		},
		{
			// A dangling S(2,4) is absent from Bind's reduced nodes; a delta
			// the query never reads shares them, and T(4,6) then makes S(2,4)
			// a solution's.
			name: "dangling-after-invisible-delta", shape: path, db: func() cq.Database {
				db := cq.Database{}
				db.Add("R", "1", "2")
				db.Add("S", "2", "3")
				db.Add("S", "2", "4")
				db.Add("T", "3", "5")
				return db
			}(),
			steps: scripted("+Zed(x,y)", "+T(4,6)"),
		},
		{
			// The path is rooted at S, with R's and T's nodes leaves below it.
			// A leaf row whose key no S row carries enters its node's B but
			// joins nothing upward: the diff walk from it finds no parent row
			// and the diff is empty. Its key entering a leaf's key set changes
			// nothing above either, and deleting it is the mirror image.
			name: "leaf-insert-joins-nothing-upward", shape: path, db: pathDB(),
			steps: scripted("+R(7,8)", "+T(9,9)", "+R(6,8) +T(8,1)", "-R(7,8)", "-T(9,9) -R(6,8)", "+S(2,9)", "-T(8,1)"),
		},
		{
			// Leaf rows with no partner in S wait in their nodes' B; one S
			// row joining both sides connects them all at once, and deleting
			// it disconnects them again.
			name: "parent-insert-connects-unpartnered-children", shape: path, db: func() cq.Database {
				db := cq.Database{}
				db.Add("R", "4", "6")
				db.Add("R", "5", "6")
				db.Add("T", "7", "8")
				db.Add("T", "7", "9")
				db.Add("S", "1", "1")
				return db
			}(),
			steps: scripted("+S(6,7)", "-S(6,7)", "+S(6,7) +R(3,6)", "-T(7,8) -T(7,9)", "+T(7,8)", "-S(6,7) +S(6,1)"),
		},
		{
			// The 6-cycle's × nodes join a(a,b) through its projection onto
			// a: b is private to it there, so a bag tuple's derivation count
			// is the number of b values of its a, which Bind weighs in and
			// the first Rebind loads. The steps add and remove b values of
			// a=1 that leave π_a as it is — one joins nothing in b, so only
			// the counts see it — and then remove the last one.
			name: "private-column", shape: diffShape{name: "cycle6", query: "a(a,b), b(b,c), c(c,d), d(d,e), e(e,f), f(f,a)"},
			db: func() cq.Database {
				db := cq.Database{}
				for _, row := range [][]string{{"a", "1", "2"}, {"a", "1", "3"}, {"a", "9", "3"}, {"b", "2", "5"}, {"b", "3", "5"},
					{"c", "5", "6"}, {"d", "6", "7"}, {"e", "7", "8"}, {"f", "8", "1"}, {"f", "8", "9"}} {
					db.Add(row[0], row[1:]...)
				}
				return db
			}(),
			steps: scripted("+a(1,4)", "-a(1,2)", "+b(4,5)", "+a(1,2) -a(1,3)", "-a(1,4)", "-b(4,5) -a(9,3)", "-a(1,2)", "+a(1,3)"),
		},
		{
			// cycle10's × nodes join a(x0,x1) through its weighted
			// projection onto x1, x0 private to it there. x1=1 weighs 2
			// (x0 = 0 and 3) and x1=6 weighs 1. The first steps move x1=1's
			// weight without crossing 0, up, down, and by a batch that adds
			// and removes at once, leaving it as it was; then a batch takes
			// it to 0, out of the projection, and the next brings it back
			// with a new x0; the last ones take x1=6 across 0 and back
			// beside a move of x1=1.
			name: "projected-edge-weight", shape: diffShape{name: "cycle10", query: maintCycle10.query()},
			db: func() cq.Database {
				db := cq.Database{}
				for _, row := range [][]string{{"a", "0", "1"}, {"a", "3", "1"}, {"a", "5", "6"},
					{"b", "0", "2"}, {"b", "3", "2"}, {"b", "5", "2"}, {"b", "7", "2"}, {"b", "8", "2"}, {"b", "9", "2"},
					{"c", "2", "30"}, {"d", "30", "40"}, {"e", "40", "50"}, {"f", "50", "60"}, {"g", "60", "70"},
					{"h", "70", "80"}, {"i", "80", "90"}, {"j", "1", "90"}, {"j", "6", "90"}} {
					db.Add(row[0], row[1:]...)
				}
				return db
			}(),
			steps: scripted("+a(7,1)", "-a(0,1)", "+a(8,1) -a(3,1)", "-a(7,1) -a(8,1)", "+a(9,1)", "+a(0,1) -a(5,6)", "-a(9,1) -a(0,1) +a(5,6)", "+a(3,1)"),
		},
		{
			// The child shares no column with its parent, the root, which is
			// empty: the child's rows are in its B, but no solution reaches
			// them until the root gets a row, and they leave every solution
			// when it loses its last.
			name: "no-shared-column-empty-parent", shape: diffShape{name: "disconnected", query: "R(a,b), S(c,d)"},
			db: func() cq.Database {
				db := cq.Database{}
				db.Add("R", "1", "2")
				return db
			}(),
			steps: scripted("+R(3,4)", "+S(5,6)", "-S(5,6)", "-R(1,2) +R(7,8)", "+S(5,6) +S(9,9)", "-S(5,6) -S(9,9) +R(1,2)"),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := cq.ParseQuery(c.shape.query)
			if err != nil {
				t.Fatal(err)
			}
			c.shape.naive = true
			bindForms(t, c.shape, func(t *testing.T, sh diffShape) {
				eng := NewEngine()
				if at, desc := runScriptOn(t, eng, sh, q, c.db, c.steps); at >= 0 {
					t.Fatalf("divergence at step %d (%v): %s", at, c.steps[at], desc)
				}
				if n := eng.Stats().DiffsOracle; n != 0 {
					t.Fatalf("%d DiffFrom calls fell back to the oracle", n)
				}
			})
		})
	}
}

// TestGroundAtomIsMaintained: a query with a variable-free atom, which the
// plan filters its root by, keeps its maintained state across Updates like
// any other: every visible delta — a new R row, G's fact leaving and coming
// back — is delta-joined into the nodes, and DiffFrom against the
// predecessor reads what Rebind recorded, equal to the oracle, never binding
// afresh. A G row the atom's constants do not match is invisible.
func TestGroundAtomIsMaintained(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	q, err := cq.ParseQuery("R(x,y), G('a','b')")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(prep.plan.filters[prep.plan.d.Root()], 1) {
		t.Fatalf("G is no filter at the root:\n%s", prep.plan.Explain())
	}
	cdb, err := eng.CompileDB(ctx, cq.Database{"R": {{"1", "2"}}, "G": {{"a", "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		delta   *storage.Delta
		visible bool
		count   int64
	}{
		{storage.NewDelta().Add("R", "3", "4"), true, 2},
		{storage.NewDelta().Remove("G", "a", "b"), true, 0},
		{storage.NewDelta().Add("R", "5", "6"), true, 0},
		{storage.NewDelta().Add("G", "a", "b"), true, 3},
		{storage.NewDelta().Add("G", "a", "c"), false, 3},
		{storage.NewDelta().Remove("R", "1", "2"), true, 2},
	} {
		joins := eng.Stats().NodeDeltaJoins
		next, err := cur.Update(ctx, c.delta)
		if err != nil {
			t.Fatal(err)
		}
		if next.maint == nil {
			t.Fatalf("step %d: the Update's result holds no maintained state", i)
		}
		if grew := eng.Stats().NodeDeltaJoins > joins; grew != c.visible {
			t.Fatalf("step %d: NodeDeltaJoins grew = %v, want %v", i, grew, c.visible)
		}
		if n, err := next.Count(ctx); err != nil || n != c.count {
			t.Fatalf("step %d: Count = %d, %v; want %d", i, n, err, c.count)
		}
		added, removed, err := next.DiffFrom(ctx, cur)
		if err != nil {
			t.Fatal(err)
		}
		wa, wr, err := next.diffOracle(ctx, cur)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRelation(t, fmt.Sprintf("step %d: added", i), added, wa)
		requireSameRelation(t, fmt.Sprintf("step %d: removed", i), removed, wr)
		cur = next
	}
	if s := eng.Stats(); s.DiffsOracle != 0 || s.Binds != 1 {
		t.Fatalf("%d DiffFroms fell back to the oracle and %d Binds ran, want 0 and 1", s.DiffsOracle, s.Binds)
	}
}

// TestEmptyBagIsMaintained: a decomposition whose nodes have empty bags —
// one whose λ edge's columns are all private, so its relation holds the
// empty tuple while S has a row, and one with no λ edge, which always holds
// it — is maintained like any other. Their key sets, nullary, are inputs of
// the root; the root filters by the ground atom G('k','k'). The first joins
// S through its projection onto no column, one row weighing |S|, in Bind
// and in Rebind alike.
func TestEmptyBagIsMaintained(t *testing.T) {
	query, err := cq.ParseQuery("R(x,y), S(y,z), G('k','k')")
	if err != nil {
		t.Fatal(err)
	}
	h := query.Hypergraph()
	all := bitset.FromSlice(h.NV(), []int{h.VertexID("x"), h.VertexID("y"), h.VertexID("z")})
	d := &decomp.GHD{
		Bags:    []bitset.Set{all, bitset.New(h.NV()), bitset.New(h.NV())},
		Lambdas: [][]int{{0, 1}, {1}, nil},
		Parent:  []int{-1, 0, 0},
	}
	plan, err := NewPlan(query, d)
	if err != nil {
		t.Fatal(err)
	}
	if out := plan.Explain(); !strings.Contains(out, "node 1: bag={} λ={a1[]}\n") {
		t.Fatalf("S is not joined through its projection onto no column at node 1:\n%s", out)
	}
	eng := NewEngine()
	prep := &PreparedQuery{eng: eng, plan: plan}
	db := cq.Database{}
	db.Add("R", "1", "2")
	db.Add("S", "2", "3")
	db.Add("G", "k", "k")
	sh := diffShape{name: "empty-bags", query: query.String(), naive: true}
	steps := scripted("-S(2,3)", "+S(2,3) +R(4,2)", "-G(k,k)", "+S(5,6)", "+G(k,k)", "-S(2,3) -S(5,6)", "+S(2,7)")
	bindForms(t, sh, func(t *testing.T, sh diffShape) {
		if at, desc := runPrepared(t, prep, sh, db, steps); at >= 0 {
			t.Fatalf("divergence at step %d (%v): %s", at, steps[at], desc)
		}
	})
	if s := eng.Stats(); s.DiffsOracle != 0 || s.NodeDeltaJoins == 0 {
		t.Fatalf("DiffsOracle %d, NodeDeltaJoins %d: want no oracle diff and delta-joined nodes", s.DiffsOracle, s.NodeDeltaJoins)
	}
}

// TestWeightedProjectionCrossProduct: a node whose two λ edges share no
// variable and each keep one column — R(x,y) onto x, S(z,w) onto z, with y
// and w private — joins the two weighted projections as a cross product, so
// a delta of one scans the other's rows, each with its weight. The children
// below hold R and S whole. Hand-built, under the scripted harness.
func TestWeightedProjectionCrossProduct(t *testing.T) {
	query, err := cq.ParseQuery("R(x,y), S(z,w)")
	if err != nil {
		t.Fatal(err)
	}
	h := query.Hypergraph()
	bag := func(vs ...string) bitset.Set {
		ids := make([]int, len(vs))
		for i, v := range vs {
			ids[i] = h.VertexID(v)
		}
		return bitset.FromSlice(h.NV(), ids)
	}
	d := &decomp.GHD{
		Bags:    []bitset.Set{bag("x", "z"), bag("x", "y"), bag("z", "w")},
		Lambdas: [][]int{{0, 1}, {0}, {1}},
		Parent:  []int{-1, 0, 0},
	}
	plan, err := NewPlan(query, d)
	if err != nil {
		t.Fatal(err)
	}
	if out := plan.Explain(); !strings.Contains(out, "node 0: bag={x,z} λ={a0[x],a1[z]}") {
		t.Fatalf("the root does not join both edges through their projections:\n%s", out)
	}
	eng := NewEngine()
	prep := &PreparedQuery{eng: eng, plan: plan}
	db := cq.Database{}
	db.Add("R", "1", "2")
	db.Add("R", "1", "3")
	db.Add("S", "5", "6")
	sh := diffShape{name: "weighted-cross", query: query.String(), naive: true}
	steps := scripted("+S(5,7)", "+R(4,2)", "-R(1,2)", "-S(5,6) -S(5,7)", "+S(8,8) +R(1,2)", "-R(1,3) -R(4,2)", "-R(1,2)", "+R(1,9)")
	bindForms(t, sh, func(t *testing.T, sh diffShape) {
		if at, desc := runPrepared(t, prep, sh, db, steps); at >= 0 {
			t.Fatalf("divergence at step %d (%v): %s", at, steps[at], desc)
		}
	})
	if s := eng.Stats(); s.DiffsOracle != 0 || s.NodeDeltaJoins == 0 {
		t.Fatalf("DiffsOracle %d, NodeDeltaJoins %d: want no oracle diff and delta-joined nodes", s.DiffsOracle, s.NodeDeltaJoins)
	}
}

// TestIncrementalLargeDeltaStaysOnDeltaPath: a delta larger than the
// relations it lands in, in the middle of a stream of small deltas, is
// maintained like any other — Apply edits the table's row map, the atom's
// delta is read off the row maps, every node is delta-joined — and the maintained
// state it leaves behind keeps patching correctly. The bulk lands in D(d,a),
// whose relation is a column permutation of the table. The only node builds
// are the first Rebind's conversion to maintained form.
func TestIncrementalLargeDeltaStaysOnDeltaPath(t *testing.T) {
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
	cdb, err := eng.CompileDB(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if cdb, err = cdb.Apply(context.Background(), stepDelta(bulk)); err != nil {
		t.Fatal(err)
	}
	if cdb.sdb.Table("D").Flat() {
		t.Error("the bulk delta left D flat")
	}
	if nodes := uint64(prep.Plan().Decomp().Nodes()); st.NodeRebuilds != nodes {
		t.Errorf("%d node builds, want %d: the first Rebind's conversion only", st.NodeRebuilds, nodes)
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
			runtime.AddCleanup(cur.enumSt, func(struct{}) { collected.Add(1) }, struct{}{})
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
// — no table is listed whole and no node converted again, however many
// Applies lie in between: there is no recorded chain to run out of — and its
// DiffFrom against
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
// timing: one-tuple updates touch (hash, probe or copy) about as many rows at
// 32 000 rows per relation as at 2 000 — the relations grow 16×, the work may
// grow by at most half (the persistent maps deepen by a level). Before deltas
// were carried, the count grew with the relations. Two inputs: on path3, one
// result-changing tuple of each relation deleted and restored; on R(a,b),
// S(c,d) with S empty, one tuple of R toggled, which R's node — held empty by
// S's nullary key set — must absorb at once. The query lists S first, as
// relation a, so that R's node is the root and S's its child.
func TestMaintRowsTouchedScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 32 000-row fixture")
	}
	heldEmpty := maintShape{"held-empty", [][]string{{"c", "d"}, {"a", "b"}}}
	cases := []struct {
		name    string
		fixture func(rows int) *maintFixture
		toggled []int // the atoms whose planted tuple 1 is toggled
		diff    int   // the result rows each toggle changes
	}{
		{"path3", func(rows int) *maintFixture { return newMaintFixture(t, maintPath3, rows, rows/2) }, []int{0, 1, 2}, 1},
		{"held-empty", func(rows int) *maintFixture {
			db, planted := heldEmpty.database(rows, rows/2)
			delete(db, heldEmpty.rel(0))
			eng, prep, cdb := compileShape(t, heldEmpty, db)
			return &maintFixture{shape: heldEmpty, eng: eng, bound: bindPrimed(t, prep, cdb), planted: planted}
		}, []int{1}, 0},
	}
	for _, c := range cases {
		touched := func(rows int) uint64 {
			f := c.fixture(rows)
			for _, i := range c.toggled { // warm: the first Rebind converts
				f.maintain(t, f.apply(t, 0, i, false))
				f.maintain(t, f.apply(t, 0, i, true))
			}
			before := f.eng.Stats()
			for _, i := range c.toggled {
				for _, insert := range []bool{false, true} {
					if f.maintain(t, f.apply(t, 1, i, insert)) != c.diff {
						t.Fatalf("%s: toggling a planted tuple must change exactly %d result rows", c.name, c.diff)
					}
				}
			}
			after := f.eng.Stats()
			if after.NodeRebuilds != before.NodeRebuilds || after.AtomDeltaScan != before.AtomDeltaScan || after.DiffsOracle != before.DiffsOracle {
				t.Fatalf("%s, %d rows: the measured updates left the delta path", c.name, rows)
			}
			return after.MaintRowsTouched - before.MaintRowsTouched
		}
		small, large := touched(2_000), touched(32_000)
		t.Logf("%s: rows touched by %d one-tuple updates: %d at 2 000 rows/relation, %d at 32 000", c.name, 2*len(c.toggled), small, large)
		if small == 0 {
			t.Fatalf("%s: MaintRowsTouched did not move", c.name)
		}
		if 2*large > 3*small {
			t.Fatalf("%s: rows touched grew %d → %d (%.2f×) while the relations grew 16×; want ≤ 1.5×",
				c.name, small, large, float64(large)/float64(small))
		}
	}
}

// TestMaintRowsTouchedHotKey makes the cost of a hot key visible: on
// path3-hot (newHotFixture) a result-neutral toggle of a(xnew, hot) brings
// hot into a's key set, or takes it out, and the root re-joins the d rows of
// b under hot, each dropped at c's key set — work in proportion to the key's
// degree, not to the change, which no uniform fixture shows. Each degree is
// held to its measurement + 10 % (59 rows at d = 10, 80 031 at d = 40 000 on
// the one-map-per-node-key form), so the cost cannot grow unnoticed.
func TestMaintRowsTouchedHotKey(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a key of degree 40 000")
	}
	ceiling := map[int]uint64{10: 64, 40_000: 88_034}
	for _, d := range []int{10, 40_000} {
		f := newHotFixture(t, d)
		f.warm(t)
		before := f.eng.Stats()
		for _, insert := range []bool{true, false} {
			if f.maintain(t, f.hotToggle(t, insert)) != 0 {
				t.Fatal("toggling a(xnew, hot) must change no answer")
			}
		}
		per := (f.eng.Stats().MaintRowsTouched - before.MaintRowsTouched) / 2
		t.Logf("hot key of degree %d: %d rows touched per result-neutral toggle", d, per)
		if per > ceiling[d] {
			t.Errorf("hot key of degree %d: %d rows touched per toggle, ceiling %d", d, per, ceiling[d])
		}
	}
}

// TestMaintRowsTouchedProjectedEdge holds maintenance through a weighted
// projection to the change, not to the multiplicity behind a key: on
// cycle10-200 (maintCycle10), whose × nodes join a(x0,x1) through its
// projection onto x1, d extra rows a(h_k, p1_x1) put d more x0 values under
// planted solution 1's x1 — one row of weight d+1 in the projection — and
// toggling that solution's c, f and i tuples, each of which changes one
// answer, must touch as many rows at d = 10 000 as at d = 10 (at most 1.1×).
// Joined whole, a(x0,x1) made each × node extend the delta over every x0 of
// the key: 834 rows per toggle of i at d = 10, 350 516 at d = 10 000. Each
// atom's count is held to its measurement + 10 %.
func TestMaintRowsTouchedProjectedEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a key of multiplicity 10 000")
	}
	toggled := []struct {
		rel     string
		atom    int
		ceiling map[int]uint64 // d → rows per toggle
	}{
		{"c", 2, map[int]uint64{10: 155, 10_000: 156}},
		{"f", 5, map[int]uint64{10: 374, 10_000: 389}},
		{"i", 8, map[int]uint64{10: 532, 10_000: 572}},
	}
	per := map[string]map[int]uint64{}
	for _, d := range []int{10, 10_000} {
		db, planted := maintCycle10.database(200, 100)
		hot := maintCycle10.plantedTuple(1, 0)[1]
		for k := 0; k < d; k++ {
			db.Add(maintCycle10.rel(0), fmt.Sprint("h", k), hot)
		}
		eng, prep, cdb := compileShape(t, maintCycle10, db)
		f := &maintFixture{shape: maintCycle10, eng: eng, bound: bindPrimed(t, prep, cdb), planted: planted}
		f.warm(t)
		for _, tg := range toggled {
			rel := tg.rel
			before := f.eng.Stats()
			for _, insert := range []bool{false, true} {
				if f.maintain(t, f.apply(t, 1, tg.atom, insert)) != 1 {
					t.Fatalf("toggling %s's tuple of planted solution 1 must change exactly one answer", rel)
				}
			}
			after := f.eng.Stats()
			if after.NodeRebuilds != before.NodeRebuilds || after.DiffsOracle != before.DiffsOracle {
				t.Fatalf("d = %d: toggling %s left the delta path", d, rel)
			}
			if per[rel] == nil {
				per[rel] = map[int]uint64{}
			}
			per[rel][d] = (after.MaintRowsTouched - before.MaintRowsTouched) / 2
			t.Logf("%s toggled under a key of multiplicity %d: %d rows touched per toggle", rel, d+1, per[rel][d])
			if per[rel][d] > tg.ceiling[d] {
				t.Errorf("%s, d = %d: %d rows touched per toggle, ceiling %d", rel, d, per[rel][d], tg.ceiling[d])
			}
		}
	}
	for rel, n := range per {
		if 10*n[10_000] > 11*n[10] {
			t.Errorf("%s: rows touched per toggle grew %d → %d from d = 10 to d = 10 000; want ≤ 1.1×", rel, n[10], n[10_000])
		}
	}
}

// TestSupportMapStaysBounded drives a long delete-heavy update stream whose
// every round retires a distinct tuple, and asserts the per-node support
// maps track the live tuples instead of every tuple ever derived: a tuple
// whose last derivation goes away leaves the map.
func TestSupportMapStaysBounded(t *testing.T) {
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
	for i := 0; i < 64; i++ {
		db.Add("R", fmt.Sprint(i%16), fmt.Sprint((i+1)%16))
		db.Add("S", fmt.Sprint((i+1)%16), fmt.Sprint((i+2)%16))
	}
	cdb, err := eng.CompileDB(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prep.Bind(ctx, cdb)
	if err != nil {
		t.Fatal(err)
	}
	mirror := db.Clone()
	rounds := 150
	if testing.Short() {
		rounds = 60
	}
	maxLen := 0
	for r := 0; r < rounds; r++ {
		// Insert a never-seen tuple, then delete it next step: every pair of
		// rounds leaves behind one would-be tombstone per support map.
		tuple := []string{fmt.Sprintf("x%d", r/2), fmt.Sprintf("y%d", r/2)}
		d := storage.NewDelta()
		op := diffOp{insert: r%2 == 0, rel: "R", tuple: tuple}
		if op.insert {
			d.Add(op.rel, op.tuple...)
		} else {
			d.Remove(op.rel, op.tuple...)
		}
		nb, err := b.Update(ctx, d)
		if err != nil {
			t.Fatalf("round %d: Update: %v", r, err)
		}
		b = nb
		applyMirror(mirror, diffStep{op})
		for _, ns := range b.maint.nodes {
			if ns.sup.Len() > maxLen {
				maxLen = ns.sup.Len()
			}
		}
	}
	// The live bag projection never exceeds |R|+1 tuples, well under the
	// ~rounds/2 distinct keys a map that kept dead tuples would accumulate.
	if bound := 64 + 1; maxLen > bound {
		t.Fatalf("support map grew to %d entries, want ≤ %d", maxLen, bound)
	}
	refCDB, err := eng.CompileDB(ctx, mirror)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prep.Bind(ctx, refCDB)
	if err != nil {
		t.Fatal(err)
	}
	if desc := compareBound(ctx, b, ref); desc != "" {
		t.Fatalf("after the delete-heavy stream: %s", desc)
	}
}
