// Package reduction implements the reductions underlying the paper's lower
// bounds: the fpt-reduction of BCQ instances backwards along a dilution
// sequence (Theorem 3.4 and its parsimonious counting variant Theorem 4.15,
// following the constructions of Appendix B), and the Grohe-style
// k-Clique-to-jigsaw-query compilation that witnesses W[1]-hardness
// (Theorem 4.8).
package reduction

import (
	"context"
	"fmt"
	"sort"

	"d2cq/internal/cq"
	"d2cq/internal/engine"
	"d2cq/internal/hypergraph"
)

// Instance is a query/database pair in canonical form for a hypergraph:
// one atom per hyperedge, relation name = edge name, arguments = the edge's
// vertices in sorted name order. Canonical instances are self-join free with
// no repeated variables, the normal form the Theorem 3.4 proof assumes.
type Instance struct {
	H *hypergraph.Hypergraph
	Q cq.Query
	D cq.Database
}

// CanonicalQuery builds the canonical CQ of a hypergraph.
func CanonicalQuery(h *hypergraph.Hypergraph) cq.Query {
	var q cq.Query
	for e := 0; e < h.NE(); e++ {
		names := h.EdgeVertexNames(e)
		sort.Strings(names)
		args := make([]cq.Term, len(names))
		for i, n := range names {
			args[i] = cq.V(n)
		}
		q.Atoms = append(q.Atoms, cq.Atom{Rel: h.EdgeName(e), Args: args})
	}
	return q
}

// NewInstance pairs a hypergraph with an empty canonical database.
func NewInstance(h *hypergraph.Hypergraph) Instance {
	return Instance{H: h, Q: CanonicalQuery(h), D: cq.Database{}}
}

// edgeColumns returns the sorted vertex names of the named edge.
func edgeColumns(h *hypergraph.Hypergraph, edgeName string) []string {
	e := h.EdgeID(edgeName)
	names := h.EdgeVertexNames(e)
	sort.Strings(names)
	return names
}

// AlignInstance converts an arbitrary self-join-free CQ instance whose
// hypergraph is isomorphic to m into a canonical instance for m: relations
// are renamed to edge names and columns reordered to sorted vertex order
// (atoms sharing a variable set are pre-joined). This is the preprocessing
// step of the Theorem 3.4 proof.
func AlignInstance(q cq.Query, db cq.Database, m *hypergraph.Hypergraph) (Instance, error) {
	if q.HasRepeatedVars() {
		return Instance{}, fmt.Errorf("reduction: repeated variables in an atom are not supported")
	}
	if !q.SelfJoinFree() {
		return Instance{}, fmt.Errorf("reduction: query has self-joins; split relation names first (see paper, proof of Thm 3.4)")
	}
	hq := q.Hypergraph()
	iso, ok := hypergraph.Isomorphic(hq, m)
	if !ok {
		return Instance{}, fmt.Errorf("reduction: query hypergraph is not isomorphic to the target hypergraph")
	}
	inst, err := engine.Compile(q, db)
	if err != nil {
		return Instance{}, err
	}
	out := NewInstance(m)
	for e := 0; e < hq.NE(); e++ {
		// Image edge in m.
		img := make(map[int]bool, hq.EdgeSet(e).Len())
		hq.EdgeSet(e).ForEach(func(v int) bool {
			img[iso.VertexMap[v]] = true
			return true
		})
		me := -1
		for f := 0; f < m.NE(); f++ {
			if m.EdgeSet(f).Len() != len(img) {
				continue
			}
			all := true
			m.EdgeSet(f).ForEach(func(v int) bool {
				if !img[v] {
					all = false
					return false
				}
				return true
			})
			if all {
				me = f
				break
			}
		}
		if me < 0 {
			return Instance{}, fmt.Errorf("reduction: no matching edge in target for %s", hq.EdgeName(e))
		}
		// Edge relation over q's variable names.
		qVars := hq.EdgeVertexNames(e)
		sort.Strings(qVars)
		rel := inst.EdgeRelation(qVars)
		// Column mapping: q variable → m vertex name; order columns by the
		// canonical (sorted) m vertex order.
		mCols := edgeColumns(m, m.EdgeName(me))
		toM := map[string]string{}
		for _, qv := range qVars {
			toM[qv] = m.VertexName(iso.VertexMap[hq.VertexID(qv)])
		}
		colOf := map[string]int{}
		for i, qv := range rel.Cols {
			colOf[toM[qv]] = i
		}
		relName := m.EdgeName(me)
		for i := 0; i < rel.Len(); i++ {
			row := rel.Row(i)
			tuple := make([]string, len(mCols))
			for j, mc := range mCols {
				tuple[j] = inst.Dict.Name(row[colOf[mc]])
			}
			out.D.Add(relName, tuple...)
		}
	}
	dedupDatabase(out.D)
	return out, nil
}

// dedupDatabase removes duplicate tuples per relation (databases are sets of
// ground atoms).
func dedupDatabase(d cq.Database) {
	for rel, tuples := range d {
		seen := map[string]bool{}
		out := tuples[:0]
		for _, t := range tuples {
			k := fmt.Sprintf("%q", t)
			if !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
		d[rel] = out
	}
}

// Solutions enumerates the canonical instance's solution relation (sorted,
// deduplicated) for ground-truth comparisons.
func (in Instance) Solutions() (*engine.Relation, *engine.Dict, error) {
	return engine.NaiveEnumerate(in.Q, in.D)
}

// BCQ decides the instance with the decomposition engine.
func (in Instance) BCQ() (bool, error) {
	p, err := engine.Default().Prepare(context.Background(), in.Q)
	if err != nil {
		return false, err
	}
	return p.Bool(context.Background(), in.D)
}

// Count counts the instance's solutions with the decomposition engine.
func (in Instance) Count() (int64, error) {
	p, err := engine.Default().Prepare(context.Background(), in.Q)
	if err != nil {
		return 0, err
	}
	return p.Count(context.Background(), in.D)
}
