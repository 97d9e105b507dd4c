//go:build race

package gateway

// raceEnabled reports whether the race detector is active: heap sizes are not
// checked under it.
const raceEnabled = true
