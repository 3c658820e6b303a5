//go:build race

package dataplane

// raceEnabled: the race detector instruments allocation and drops
// sync.Pool items at random, so allocation pins do not hold under it.
const raceEnabled = true
