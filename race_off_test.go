//go:build !race

package mps

// raceEnabled reports whether the tests run under the race detector, which
// drops a share of sync.Pool puts at random and so inflates allocation
// counts.
const raceEnabled = false
