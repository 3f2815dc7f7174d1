package engine

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
