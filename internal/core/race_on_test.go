//go:build race

package core

// raceEnabled reports whether the race detector is active: its
// instrumentation allocates, so allocation counts are not checked under it.
const raceEnabled = true
