// Package gateway is the float rule's clean fixture: a data-plane package
// that polices in integer micro-bits and keeps its one float product, at
// configuration time, under the allow directive.
package gateway

// Bucket is a token bucket in micro-bits.
type Bucket struct {
	fill   uint64
	lastNs int64
}

// Allow refills and polices one packet, all in integers.
func (b *Bucket) Allow(rateKbps uint32, nowNs int64, bytes uint32) bool {
	if nowNs > b.lastNs {
		b.fill = min(b.fill+uint64(min(nowNs-b.lastNs, 100_000_000))*uint64(rateKbps), uint64(rateKbps)*100_000_000)
		b.lastNs = nowNs
	}
	need := uint64(bytes) * 8_000_000
	if b.fill < need {
		return false
	}
	b.fill -= need
	return true
}

// Burst scales a configured fraction of a second, once.
func Burst(rateKbps uint32, seconds float64) uint64 {
	return uint64(float64(rateKbps) * 1e9 * seconds) //colibri:allow(determinism) — configuration time
}
