// Package ofd is the fixture for the determinism check's float rule: a
// data-plane package whose decisions must be integer.
package ofd

import "math"

// Sketch counts in float: every operation on the counters is a finding.
type Sketch struct {
	counters  []float64
	threshold float64
}

// Record adds a float size and compares a float estimate: findings.
func (s *Sketch) Record(i int, size float64) bool {
	est := s.counters[i]
	s.counters[i] += size
	return est > s.threshold
}

// Normalized converts to float and divides: findings.
func Normalized(bytes uint32, kbps uint64) float64 {
	return float64(bytes) * 8 / float64(kbps)
}

// Ceil rounds through math: a finding.
func Ceil(x float64) uint64 { return uint64(math.Ceil(x)) }

// Step counts a float up: a finding.
func Step(x float64) float64 {
	x++
	return -x
}

// Integer keeps its unit in ns: no finding, constants included.
func Integer(nowNs int64, bytes uint32, kbps uint64) (uint32, uint64) {
	const window = 50 * 1e6
	sec := uint32(nowNs / 1e9)
	return sec, (uint64(bytes)*8_000_000-1)/kbps + 1 + window
}

// Threshold is configuration-time maths, allowed on its line.
func Threshold(tolerance float64, windowNs int64) uint32 {
	return uint32((1 + tolerance) * float64(windowNs)) //colibri:allow(determinism) — configuration time
}

// sizing is configuration-time maths as a whole, allowed in its doc.
//
//colibri:allow(determinism) — configuration time
func sizing(n int, fp float64) uint64 {
	return uint64(-float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2))
}

var _ = sizing
