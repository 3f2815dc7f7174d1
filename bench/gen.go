package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// Frozen workload constants. They were calibrated once on the 2-core host
// named in README.md and are never derived at run time: a number that moves
// with the machine would make two reports incomparable.
const (
	zipfS      = 1.3 // query popularity skew
	readLimit  = 16  // rows per Solutions read
	recentRing = 16  // ops before a planted solution may be toggled again (below every shape's planted count)

	flushReadShare = 0.125 // flush.closed: one op in eight is a read
	serveReadShare = 0.2   // serve.*: one op in five is a read
	serveRate      = 150   // serve.*: scheduled ops per second (open loop)
	serveWatchers  = 64    // serve.wire: watch streams on the one connection
)

// shape is one query shape of the live registry: its atoms over per-query
// relations, and the sizing of the steady-state database behind it.
//
// Every relation holds `background` random tuples over [0,domain) per column
// — they give the joins their fan-out and are never touched — plus one
// projection per planted solution. A planted solution is a full assignment
// whose projections collide with nothing else, so toggling any one of its
// tuples is certain to remove or restore at least that result row: every
// submit changes its query's result, and the watcher can recognise the
// change by the planted row it carries.
type shape struct {
	name       string
	atoms      []shapeAtom
	background int
	planted    int
	domain     int
}

type shapeAtom struct {
	suffix string
	vars   []string
}

var (
	// path3 relations sit above storage's 4096-row partitioned-layout
	// threshold; cycle4 and jigsaw2x3 stay in the flat layout. cycle4 is kept
	// at 500 rows because the engine's width-2 plan for a 4-cycle joins two
	// opposite edges into a rows² cross-product bag: at 2000 rows that is a
	// 4M-row bag, 0.5-0.9 s per registration and 800 MB resident.
	shapePath3 = shape{name: "path3", background: 4000, planted: 1000, domain: 2500, atoms: []shapeAtom{
		{"a", []string{"x", "y"}}, {"b", []string{"y", "z"}}, {"c", []string{"z", "w"}}}}
	shapeCycle4 = shape{name: "cycle4", background: 400, planted: 100, domain: 250, atoms: []shapeAtom{
		{"a", []string{"a", "b"}}, {"b", []string{"b", "c"}}, {"c", []string{"c", "d"}}, {"d", []string{"d", "a"}}}}
	// jigsaw2x3 is the dual of the 2×3 grid, the paper's canonical degree-2
	// ghw-2 shape: one atom per cell, one variable per grid edge.
	shapeJigsaw = shape{name: "jigsaw2x3", background: 160, planted: 40, domain: 100, atoms: []shapeAtom{
		{"a", []string{"h11", "v1"}}, {"b", []string{"h11", "h12", "v2"}}, {"c", []string{"h12", "v3"}},
		{"d", []string{"h21", "v1"}}, {"e", []string{"h21", "h22", "v2"}}, {"f", []string{"h22", "v3"}}}}
)

// registry lists the shapes of a live workload's queries, hottest first
// (query i is named q<i> and Zipf popularity falls with i).
func registry(path3, cycle4, jigsaw int) []shape {
	var out []shape
	for i := 0; i < path3; i++ {
		out = append(out, shapePath3)
	}
	for i := 0; i < cycle4; i++ {
		out = append(out, shapeCycle4)
	}
	for i := 0; i < jigsaw; i++ {
		out = append(out, shapeJigsaw)
	}
	return out
}

// liveQuery is one registered query of a generated workload together with the
// generator's logical view of its relations.
type liveQuery struct {
	name  string
	shape shape
	text  string
	vars  []string // sorted query variables: the column order of result rows

	background [][][]string // per atom: the untouched random tuples
	planted    []planted
}

// planted is one planted solution: its value per variable and which of its
// tuples (atom index) is currently absent from the database, -1 when intact.
type planted struct {
	assign  map[string]string
	missing int
}

func (q *liveQuery) rel(atom int) string { return q.name + "_" + q.shape.atoms[atom].suffix }

// tuple projects planted solution j onto the given atom.
func (q *liveQuery) tuple(j, atom int) []string {
	vars := q.shape.atoms[atom].vars
	t := make([]string, len(vars))
	for i, v := range vars {
		t[i] = q.planted[j].assign[v]
	}
	return t
}

// row is planted solution j as a result row (values in q.vars order).
func (q *liveQuery) row(j int) []string {
	r := make([]string, len(q.vars))
	for i, v := range q.vars {
		r[i] = q.planted[j].assign[v]
	}
	return r
}

// opKind says what one generated operation does.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opRead
)

// op is one generated operation. Submits toggle one tuple of one planted
// solution; row is the result row the change is certain to carry.
type op struct {
	kind  opKind
	query int
	rel   string
	tuple []string
	row   []string
}

func (o op) delta() *storage.Delta {
	d := storage.NewDelta()
	if o.kind == opInsert {
		return d.Add(o.rel, o.tuple...)
	}
	return d.Remove(o.rel, o.tuple...)
}

// noteKey identifies the notification row that answers a submit: which
// query, whether the row was added or removed, and the row itself.
func noteKey(query string, added bool, row []string) string {
	sign := "-"
	if added {
		sign = "+"
	}
	return query + sign + strings.Join(row, ",")
}

// generator is the seeded source of a live workload: the steady-state
// database and an endless, deterministic op stream over it. The same seed
// gives byte-identical inputs; nothing about the system under test feeds
// back into it.
type generator struct {
	rng       *rand.Rand
	zipf      *rand.Zipf
	readShare float64
	queries   []*liveQuery
	recent    []string // ring of planted solutions toggled lately
	recentSet map[string]bool
}

func newGenerator(seed int64, shapes []shape, readShare float64) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{rng: rng, readShare: readShare, recentSet: map[string]bool{}}
	for i, s := range shapes {
		g.queries = append(g.queries, g.newQuery(fmt.Sprintf("q%d", i), s))
	}
	g.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(shapes)-1))
	return g
}

func (g *generator) newQuery(name string, s shape) *liveQuery {
	q := &liveQuery{name: name, shape: s}
	var atoms []string
	for i, a := range s.atoms {
		atoms = append(atoms, fmt.Sprintf("%s(%s)", q.rel(i), strings.Join(a.vars, ",")))
	}
	q.text = strings.Join(atoms, ", ")
	parsed, err := cq.ParseQuery(q.text)
	if err != nil {
		panic(err) // the shapes above are constants
	}
	q.vars = parsed.Vars()

	value := func() string { return fmt.Sprintf("c%d", g.rng.Intn(s.domain)) }
	taken := make([]map[string]bool, len(s.atoms))
	q.background = make([][][]string, len(s.atoms))
	for i, a := range s.atoms {
		taken[i] = map[string]bool{}
		for len(q.background[i]) < s.background {
			t := make([]string, len(a.vars))
			for c := range t {
				t[c] = value()
			}
			if k := strings.Join(t, ","); !taken[i][k] {
				taken[i][k] = true
				q.background[i] = append(q.background[i], t)
			}
		}
	}
	for len(q.planted) < s.planted {
		p := planted{assign: map[string]string{}, missing: -1}
		for _, v := range q.vars {
			p.assign[v] = value()
		}
		q.planted = append(q.planted, p)
		j := len(q.planted) - 1
		keys := make([]string, len(s.atoms))
		clash := false
		for i := range s.atoms {
			keys[i] = strings.Join(q.tuple(j, i), ",")
			clash = clash || taken[i][keys[i]]
		}
		if clash {
			q.planted = q.planted[:j]
			continue
		}
		for i, k := range keys {
			taken[i][k] = true
		}
		// Half the solutions start with one tuple absent, so inserts and
		// deletes balance from the first op and table sizes stay flat.
		if j%2 == 1 {
			q.planted[j].missing = j / 2 % len(s.atoms)
		}
	}
	return q
}

// database is the generator's current logical database.
func (g *generator) database() cq.Database {
	db := cq.Database{}
	for _, q := range g.queries {
		for i := range q.shape.atoms {
			rel := q.rel(i)
			db[rel] = append(db[rel], q.background[i]...)
			for j, p := range q.planted {
				if p.missing != i {
					db[rel] = append(db[rel], q.tuple(j, i))
				}
			}
		}
	}
	return db
}

// next draws the next op and applies it to the logical database.
func (g *generator) next() op {
	qi := int(g.zipf.Uint64())
	q := g.queries[qi]
	if g.rng.Float64() < g.readShare {
		return op{kind: opRead, query: qi}
	}
	// Two ops on one planted solution must not be in flight together: sent
	// from different connections they could be applied out of order.
	var j int
	var id string
	for {
		j = g.rng.Intn(len(q.planted))
		id = fmt.Sprintf("%d/%d", qi, j)
		if !g.recentSet[id] {
			break
		}
	}
	if len(g.recent) == recentRing {
		delete(g.recentSet, g.recent[0])
		g.recent = g.recent[1:]
	}
	g.recent = append(g.recent, id)
	g.recentSet[id] = true

	p := &q.planted[j]
	o := op{query: qi, row: q.row(j)}
	if p.missing >= 0 {
		o.kind, o.rel, o.tuple = opInsert, q.rel(p.missing), q.tuple(j, p.missing)
		p.missing = -1
	} else {
		atom := g.rng.Intn(len(q.shape.atoms))
		o.kind, o.rel, o.tuple = opDelete, q.rel(atom), q.tuple(j, atom)
		p.missing = atom
	}
	return o
}

// sweep is the warm-up every live set-up ends with: for each relation of each
// query, delete one planted tuple and put it back. The engine builds a
// node's support map the first time the node is maintained, so this is what
// makes the timed phase steady state from its first op. It must run before
// any next(): it relies on, and restores, the initial planted state.
func (g *generator) sweep() []op {
	var ops []op
	for qi, q := range g.queries {
		for atom := range q.shape.atoms {
			j := 2 * atom // even solutions start intact
			o := op{kind: opDelete, query: qi, rel: q.rel(atom), tuple: q.tuple(j, atom), row: q.row(j)}
			ops = append(ops, o)
			o.kind = opInsert
			ops = append(ops, o)
		}
	}
	return ops
}

// streamHash digests the next n ops: the fingerprint two runs of one seed
// must share.
func (g *generator) streamHash(n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		o := g.next()
		fmt.Fprintf(h, "%d|%d|%s|%s|%s\n", o.kind, o.query, o.rel, strings.Join(o.tuple, ","), strings.Join(o.row, ","))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// databaseText renders a database in d2cqd's -db file format.
func databaseText(db cq.Database) string {
	var b strings.Builder
	for _, rel := range sortedKeys(db) {
		for _, t := range db[rel] {
			b.WriteString(rel)
			b.WriteByte('(')
			b.WriteString(strings.Join(t, ","))
			b.WriteString(")\n")
		}
	}
	return b.String()
}
