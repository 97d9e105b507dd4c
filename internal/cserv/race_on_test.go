//go:build race

package cserv

// raceEnabled reports whether the race detector is active: it makes sync.Pool
// drop items at random, so allocation budgets are not checked under it.
const raceEnabled = true
