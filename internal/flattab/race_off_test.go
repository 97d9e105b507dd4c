//go:build !race

package flattab

const raceEnabled = false
