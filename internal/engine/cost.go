package engine

import (
	"d2cq/internal/cq"
	"d2cq/internal/storage"
)

// This file is the cost model of incremental maintenance: every
// incremental-vs-rebuild decision prices both paths by the rows each would
// actually touch, using measured quantities only — table row counts, cached
// per-column distinct counts, relation and delta lengths. The one constant is
// a per-row *weight*, not a cutoff: the two paths touch rows in two different
// kinds of container, and the weight makes the two kinds comparable.

// patchWeight is the cost of writing one row into a persistent map relative
// to hashing one row into a flat one (≈1). storage's
// BenchmarkTupleMapSuccessor measures both on the reference host: a flat
// rebuild hashes a row in 0.04–0.05 µs; a key read-modify-written inside an
// edit of a persistent map costs 0.4 µs at 5 000 entries and 1.1 µs at
// 100 000 (a one-key edit 0.8–4 µs), and a row loaded into a fresh one
// 0.28 µs — 6× to 25×. The delta path of a node does the former per
// derivation, the rebuild path the latter per node row after a flat re-join;
// one weight for both is a simplification that can misprice a delta the size
// of the node itself by 2× either way, where the two paths cost about the
// same anyway.
const patchWeight = 8

// atomScanRows estimates how many table rows the bindAtomRelation fallback
// would visit for the atom: the whole table, or — when the atom carries
// constants — the expected bucket of the probe on the most selective
// constant column, from the table's measured distinct counts. The stats are
// cached on the table and were already computed by the original bind of any
// constant-bearing atom, so consulting them here does not add an O(rows)
// pass on the delta path.
func atomScanRows(a cq.Atom, t *storage.Table) int {
	if t == nil {
		return 0
	}
	rows := t.Rows()
	hasConst := false
	for _, term := range a.Args {
		if !term.Var {
			hasConst = true
			break
		}
	}
	if !hasConst || t.Arity == 0 {
		return rows
	}
	st := t.Stats()
	best := 1
	for i, term := range a.Args {
		if !term.Var && st.Distinct[i] > best {
			best = st.Distinct[i]
		}
	}
	return rows/best + 1
}

// chooseAtomDelta decides whether to read a dirty atom's delta off the row
// lineage (deltaRows rows matched against the atom) or to rescan the table
// and diff (scanRows rows matched, deduplicated and probed against the old
// set). Either way the resulting delta is then patched into the atom's state
// at the same price, so only the rows each side has to look at differ: the
// lineage wins unless it lists more rows than the scan would visit.
func chooseAtomDelta(deltaRows, scanRows int) bool {
	return deltaRows <= scanRows
}

// chooseNodeDelta decides whether to maintain a node by delta-joining its
// changed inputs (totalDelta rows, each amplified by the node's measured
// rows-per-input-row ratio, every resulting derivation a read-modify-write
// of the persistent support map) or to re-materialise it (every input row
// re-joined flat, then every one of the supRows node rows written into fresh
// maps and diffed against the old ones). supRows is the node's current size
// and maxInput its largest input, so the amplification estimate tracks the
// data instead of a guessed constant.
func chooseNodeDelta(totalDelta, totalInput, supRows, maxInput int) bool {
	amp := 1 + supRows/(maxInput+1)
	deltaCost := totalDelta * amp * patchWeight
	rebuildCost := totalInput + supRows*patchWeight
	return deltaCost <= rebuildCost
}
