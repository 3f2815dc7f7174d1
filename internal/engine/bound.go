package engine

import (
	"context"
	"fmt"
	"strings"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// CompiledDB is a database compiled once by Engine.CompileDB: constants
// interned through one dictionary, relations compiled into flat tables of
// interned rows. A CompiledDB is read-only after compilation and safe to
// share between any number of concurrent Binds and evaluations. Apply evolves
// it into a new snapshot without recompiling: the two snapshots share every
// untouched table and the (append-friendly) dictionary, and a table any delta
// reaches turns persistent, so that its successors share its rows too (see
// storage.DB.Apply).
type CompiledDB struct {
	sdb *storage.DB
	eng *Engine // whose Stats count the rows Apply touches
}

// CompileDB interns db once into a reusable compiled form. Pair it with
// PreparedQuery.Bind to also fix the data-dependent evaluation state:
// Prepare × CompileDB × Bind is the full compile-once / evaluate-many
// discipline for repeated traffic over a mostly-stable database.
func (e *Engine) CompileDB(ctx context.Context, db cq.Database) (*CompiledDB, error) {
	e.dbCompiles.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sdb, err := storage.Compile(db)
	if err != nil {
		return nil, err
	}
	return &CompiledDB{sdb: sdb, eng: e}, nil
}

// Apply produces a new database snapshot with the delta applied —
// copy-on-write down to the rows, so a small delta costs time proportional
// to the delta (see storage.DB.Apply). Both snapshots stay live: the receiver
// is unchanged and existing BoundQuerys over it keep answering consistently.
// Pair with BoundQuery.Rebind (or use BoundQuery.Update, which does both) to
// carry bound evaluation state forward incrementally.
func (c *CompiledDB) Apply(ctx context.Context, delta *storage.Delta) (*CompiledDB, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sdb, err := c.sdb.Apply(delta)
	if err != nil {
		return nil, err
	}
	c.eng.applyRows.Add(sdb.ApplyRows())
	return &CompiledDB{sdb: sdb, eng: c.eng}, nil
}

// Restrict returns the snapshot cut down to the named relations, sharing
// their tables and the dictionary. A BoundQuery keeps the CompiledDB it was
// bound to alive; one bound to a snapshot restricted to the relations it
// reads rebinds exactly as it would against the whole snapshot, without
// holding on to every other relation's rows as of that moment — which is
// what a long-lived registry of queries over a changing database wants.
func (c *CompiledDB) Restrict(relations []string) *CompiledDB {
	return &CompiledDB{sdb: c.sdb.Restrict(relations), eng: c.eng}
}

// Stats summarises the compiled database (relations, tuples, interned
// constants).
func (c *CompiledDB) Stats() storage.DBStats { return c.sdb.Stats() }

// RelationArity returns the arity of the named relation, or ok=false when
// the relation is absent (equivalently: empty) in this snapshot. Ingestion
// layers use it to reject arity-mismatched tuples before they reach Apply.
func (c *CompiledDB) RelationArity(name string) (int, bool) {
	t := c.sdb.Table(name)
	if t == nil {
		return 0, false
	}
	return t.Arity, true
}

// RelationRows returns the named relation's tuple count (0 when absent).
func (c *CompiledDB) RelationRows(name string) int {
	t := c.sdb.Table(name)
	if t == nil {
		return 0
	}
	return t.Rows()
}

// BoundQuery is a prepared query bound to a compiled database: the interned
// dictionary, the per-atom relations, and the materialised decomposition
// node relations are all built once at bind time and reused by every
// evaluation call. The node relations are bottom-up reduced, and stay so
// under Rebind, which maintains them. Bind finishes the counting DP on its
// way up and Rebind carries it forward, so Count only reads the total. The
// enumeration runs over the same nodes, with no further reduction and no
// index of its own: Bind lays each node's rows out by parent key, and Rebind
// maintains that grouping.
// A BoundQuery is immutable after binding and safe for concurrent use;
// Update/Rebind never mutate it — they return a new BoundQuery sharing all
// state the delta did not touch.
type BoundQuery struct {
	prep *PreparedQuery
	cdb  *CompiledDB

	// inst is the flat atom relations Bind builds, nil whenever maint is
	// set: a Rebind result that holds the maintained form holds nothing else.
	inst *Instance

	// maint is the maintained (persistent-map) form of the same relations,
	// nil until the first Rebind that changes something the query reads: a
	// bind-and-evaluate workload that never updates builds none of it.
	maint *maintState

	// enumSt is the enumeration state and countSt the counting DP, both set
	// by Bind over its flat nodes (enumSt.rels) and by Rebind over the
	// maintained ones.
	enumSt  *enumState
	countSt *countState
}

// Bind fixes the data-dependent half of the evaluation for a snapshot: it
// builds the per-atom relations over the compiled database and materialises
// the decomposition bottom-up, children first — each node the connected join
// of its cover relations, its children's messages and its filter atoms,
// projected to the bag. A child's message is its rows grouped on the columns
// it shares with its parent, each key carrying the counting DP's sum over
// those rows: one map that is the parent's semijoin filter and its counting
// factor at once. The nodes are thus bottom-up reduced from the start: a
// cover whose relations share no variable is never built as a cross product
// on its own, Bool reads the root, Count reads the total summed at the root,
// and each non-root node's rows are laid out in the buckets of its message,
// grouped by the key they were counted into, which Enumerate walks as they
// are. Rebind maintains the same nodes.
func (p *PreparedQuery) Bind(ctx context.Context, cdb *CompiledDB) (*BoundQuery, error) {
	p.eng.binds.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	inst, err := BindCompile(p.plan.query, cdb.sdb)
	if err != nil {
		return nil, err
	}
	rels, cs, err := bindNodes(ctx, p.plan, inst)
	if err != nil {
		return nil, err
	}
	es := &enumState{plan: p.plan, id: p.eng.stateSeq.Add(1), rels: rels, groups: cs.groups}
	return &BoundQuery{prep: p, cdb: cdb, inst: inst, enumSt: es, countSt: cs}, nil
}

// Query returns the bound query.
func (b *BoundQuery) Query() cq.Query { return b.prep.Query() }

// Database returns the compiled database snapshot the query is bound to.
func (b *BoundQuery) Database() *CompiledDB { return b.cdb }

// ExplainDB renders the plan together with the (bottom-up reduced) node
// relation sizes already materialised — unlike PreparedQuery.ExplainDB it
// does no work beyond formatting.
func (b *BoundQuery) ExplainDB() string {
	plan := b.prep.plan
	var sb strings.Builder
	sb.WriteString(plan.Explain())
	for u := range plan.d.Nodes() {
		fmt.Fprintf(&sb, "node %d materialised: |rel|=%d\n", u, b.nodeLen(u))
	}
	return sb.String()
}

// nodeLen returns the number of rows of node u's relation.
func (b *BoundQuery) nodeLen(u int) int {
	if b.maint != nil {
		return b.maint.nodes[u].sup.Len()
	}
	return b.enumSt.rels[u].Len()
}

// Vars returns the query's variables in enumeration output order (sorted).
func (b *BoundQuery) Vars() []string { return b.prep.Vars() }

// Dict returns the interned dictionary of the bound database lineage — the
// value space of the relations DiffFrom returns.
func (b *BoundQuery) Dict() *Dict { return b.cdb.sdb.Dict }

// Bool decides q(D) ≠ ∅ over the bound database (Proposition 2.2): whether
// the bottom-up reduced root is non-empty.
func (b *BoundQuery) Bool(ctx context.Context) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return b.nodeLen(b.prep.plan.d.Root()) > 0, nil
}

// Count computes |q(D)| for a full CQ over the bound database
// (Proposition 4.14). Bind runs the counting DP and Count reads its total;
// Update maintains the per-node messages beside the nodes' rows,
// incrementally on the affected subtrees only.
func (b *BoundQuery) Count(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return b.countSt.total, nil
}

// Enumerate streams every solution of the full CQ over the bound database,
// with bounded delay: it walks the nodes' rows in the parent-key buckets Bind
// laid them out in, or Rebind maintains, so even the first call builds
// nothing. See PreparedQuery.Enumerate for the yield contract.
func (b *BoundQuery) Enumerate(ctx context.Context, yield func(Solution) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sol := Solution{vars: b.prep.plan.qvars, dict: b.Dict()}
	return b.enumSt.enumerate(ctx, func(row []Value) bool {
		sol.row = row
		return yield(sol)
	})
}

// EnumerateAll materialises every solution as a sorted relation (a
// convenience over Enumerate for tests and small result sets).
func (b *BoundQuery) EnumerateAll(ctx context.Context) (*Relation, *Dict, error) {
	out, err := b.materialise(ctx)
	if err != nil {
		return nil, nil, err
	}
	out.SortForDisplay()
	return out, b.Dict(), nil
}

// maxReserve caps the Values materialise reserves up front (64 MiB): a
// larger result is grown by append, so an enumeration cancelled early does
// not hold memory sized for all of it.
const maxReserve = 1 << 24

// materialise streams every solution into an (unsorted) relation over the
// query's variables — EnumerateAll without the display sort. The relation is
// reserved at Count's total, which Bind and Rebind leave ready.
func (b *BoundQuery) materialise(ctx context.Context) (*Relation, error) {
	out := NewRelation(b.prep.plan.qvars...)
	if a := int64(len(out.Cols)); a > 0 && b.countSt.total <= maxReserve/a {
		out.Data = make([]Value, 0, b.countSt.total*a)
	}
	err := b.Enumerate(ctx, func(s Solution) bool {
		// addRow copies into the backing array immediately, so the reused
		// yield slice can be passed straight through.
		out.addRow(s.row)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DiffFrom computes the tuple-level change of the query's result between a
// previous bound snapshot and this one: added holds the solutions present
// now but absent then, removed the converse, both sorted, over Vars()
// columns (in the shared dictionary's value space). The receiver and prev
// must be binds of the same PreparedQuery descending from one CompileDB
// lineage — interned values are not comparable across dictionaries, so
// anything else is an error. When the delta never reached the query, or was
// absorbed before the reduced relations, the diff is empty without
// enumerating anything. When the receiver was derived from prev by Rebind or
// Update, the diff is enumerated straight from the node deltas that Rebind
// recorded, in O(per-node change + |result diff| × tree) — see diff.go —
// never materialising either result. Against any other snapshot of the
// lineage both results are materialised and diffed as sets. This is the
// hook a live view-maintenance layer turns into change notifications. The
// returned relations are read-only.
func (b *BoundQuery) DiffFrom(ctx context.Context, prev *BoundQuery) (added, removed *Relation, err error) {
	if prev == nil {
		return nil, nil, fmt.Errorf("engine: DiffFrom against a nil snapshot")
	}
	if b.prep != prev.prep {
		return nil, nil, fmt.Errorf("engine: DiffFrom across different prepared queries")
	}
	if b.Dict() != prev.Dict() {
		return nil, nil, fmt.Errorf("engine: DiffFrom across unrelated database lineages")
	}
	// One shared, never-written empty relation per plan: an invisible or
	// absorbed delta allocates nothing here.
	noRows := b.prep.plan.noRows
	// Every visible Rebind renews the enumeration state; share keeps it.
	if b.enumSt == prev.enumSt {
		return noRows, noRows, nil // shared state: the delta was invisible to the query
	}
	if bes, pes := b.enumSt, prev.enumSt; bes.m != nil && bes.parent == pes.id {
		var diffs []nodeDiff
		for u, d := range bes.m.delta {
			if d != nil {
				diffs = append(diffs, nodeDiff{u: u, plus: d.plus, minus: d.minus})
			}
		}
		if len(diffs) == 0 {
			return noRows, noRows, nil // every reduced relation absorbed: identical results
		}
		if pes.m == nil {
			pes = bes.m.base
		}
		b.prep.eng.diffsFast.Add(1)
		return b.diffIncremental(ctx, pes, bes, diffs)
	}
	b.prep.eng.diffsOracle.Add(1)
	return b.diffOracle(ctx, prev)
}
