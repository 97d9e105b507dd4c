//go:build race

package flattab

// raceEnabled reports whether the race detector is active: heap sizes are not
// checked under it.
const raceEnabled = true
