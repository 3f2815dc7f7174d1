//go:build race

package engine

// raceEnabled reports whether the tests run under the race detector, which
// makes sync.Pool drop a share of its Puts at random: allocation counts that
// go through a pool are not comparable then.
const raceEnabled = true
