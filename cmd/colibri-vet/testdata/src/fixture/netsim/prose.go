package netsim

import "time"

// Keys mentions the //colibri:ordered directive in prose without carrying
// it, so the file keeps the map-iteration rule: finding.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Stamp's trailing comment mentions an allow directive without being one:
// finding.
func Stamp() int64 {
	return time.Now().UnixNano() // not a //colibri:allow(determinism)
}
