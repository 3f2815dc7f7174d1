//go:build !race

package engine

// raceEnabled: see race_test.go.
const raceEnabled = false
