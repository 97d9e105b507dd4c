// Package ofd implements the probabilistic overuse-flow detector used by
// transit and transfer ASes (§4.8). Following the LOFT/count-min family of
// algorithms the paper builds on, it tracks per-reservation bandwidth usage
// in a small count-min sketch over fixed time windows:
//
//   - Input per packet: the flow label (SrcAS, ResID) and the *normalized*
//     packet size (total size ÷ reservation bandwidth), so that a single
//     sketch monitors reservations of all bandwidths and all versions of an
//     EER share one budget.
//   - A packet is flagged when the flow's estimate *before* it already
//     exceeds (1+ε) × window: a packet is never evidence against itself (the
//     token bucket's granularity too: monitor.BurstBytesFor admits one
//     full-size packet). Count-min never underestimates, so usage above
//     (1+ε) × window + s per window, s being one packet's normalized size, is
//     always flagged — for s ≪ window the plain (1+ε) bound; a flow whose
//     packets never share a window is not seen at all (DESIGN.md §3).
//     False positives are resolved by escalation to deterministic
//     token-bucket monitoring, exactly as in the paper.
//
// The detector keeps nothing per flow: who is under watch is the caller's
// table (monitor.FlowMonitor at the border router).
package ofd

import "colibri/internal/reservation"

// Config parameterizes the detector.
type Config struct {
	// Depth is the number of sketch rows (default 4).
	Depth int
	// Width is the number of counters per row (default 4096), rounded up
	// to a power of two so that a row is indexed by a mask.
	Width int
	// WindowNs is the measurement window (default 50 ms).
	WindowNs int64
	// Tolerance is ε: a flow is suspicious above (1+ε)×fair usage
	// (default 0.1).
	Tolerance float64
}

func (c *Config) setDefaults() {
	if c.Depth == 0 {
		c.Depth = 4
	}
	if c.Width == 0 {
		c.Width = 4096
	}
	c.Width = pow2(c.Width)
	if c.WindowNs == 0 {
		c.WindowNs = 50 * 1e6
	}
	if c.Tolerance == 0 {
		c.Tolerance = 0.1
	}
}

// Split scales the config for one of n data-plane shards: each shard sees
// only its pinned flows, so per-row width shrinks to Width/n (floor 64 to
// keep collision noise bounded on tiny shards) while depth, window, and
// tolerance — which are per-flow properties — stay unchanged. This mirrors
// the capacity/K clone trick of the sharded control plane: n shard sketches
// together hold the memory of one full-size sketch.
func (c Config) Split(n int) Config {
	c.setDefaults()
	if n > 1 {
		c.Width /= n
		if c.Width < 64 {
			c.Width = 64
		}
		c.Width = pow2(c.Width)
	}
	return c
}

// pow2 rounds n up to a power of two.
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Detector is one border router's overuse-flow detector. It takes no lock:
// one goroutine at a time owns it, as one core owns a router's sketch
// (router.Sharded gives each shard its own).
type Detector struct {
	cfg       Config
	counters  []float64 // depth × width, row-major
	mask      uint64    // width − 1
	seeds     []uint64
	winStart  int64
	threshold float64 // normalized usage limit per window
}

// New builds a detector.
func New(cfg Config) *Detector {
	cfg.setDefaults()
	d := &Detector{
		cfg:      cfg,
		counters: make([]float64, cfg.Depth*cfg.Width),
		mask:     uint64(cfg.Width - 1),
		seeds:    make([]uint64, cfg.Depth),
	}
	// Fixed odd seeds; distinct per row.
	for i := range d.seeds {
		d.seeds[i] = 0x9E3779B97F4A7C15 * uint64(2*i+1)
	}
	// A conforming flow transmits bw × window bits, i.e. normalized usage
	// equal to the window length in seconds.
	d.threshold = (1 + cfg.Tolerance) * float64(cfg.WindowNs) / 1e9
	return d
}

// hash mixes the flow label with a row seed (splitmix64 finalizer).
func hash(id reservation.ID, seed uint64) uint64 {
	x := uint64(id.SrcAS) ^ (uint64(id.Num) << 32) ^ seed
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Record accounts one packet and reports whether the flow's estimate in the
// current window was over the threshold before it. normSize is the packet's
// bits over the reservation's bits/second (i.e., seconds of budget consumed).
func (d *Detector) Record(id reservation.ID, normSize float64, nowNs int64) bool {
	if nowNs-d.winStart >= d.cfg.WindowNs {
		clear(d.counters)
		d.winStart = nowNs - (nowNs-d.winStart)%d.cfg.WindowNs
		if nowNs-d.winStart >= d.cfg.WindowNs { // first call or long gap
			d.winStart = nowNs
		}
	}
	est := -1.0
	for row := 0; row < d.cfg.Depth; row++ {
		idx := row*d.cfg.Width + int(hash(id, d.seeds[row])&d.mask)
		if est < 0 || d.counters[idx] < est {
			est = d.counters[idx]
		}
		d.counters[idx] += normSize
	}
	return est > d.threshold
}

// NormalizedSize converts a packet size and reservation bandwidth to the
// detector's input unit (seconds of reservation budget).
func NormalizedSize(sizeBytes uint32, bwKbps uint64) float64 {
	if bwKbps == 0 {
		return 0
	}
	return float64(sizeBytes) * 8 / (float64(bwKbps) * 1000)
}
