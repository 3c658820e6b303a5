//go:build race

package main

// raceEnabled: under the race detector sync.Pool drops items at random,
// so allocation gates over pooled paths do not hold.
const raceEnabled = true
