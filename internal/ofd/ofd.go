// Package ofd implements the probabilistic overuse-flow detector used by
// transit and transfer ASes (§4.8). Following the LOFT/count-min family of
// algorithms the paper builds on, it tracks per-reservation bandwidth usage
// in a small count-min sketch over fixed time windows:
//
//   - Input per packet: the flow label (SrcAS, ResID) and the *normalized*
//     packet size s = ⌈8·10⁶ · bytes ÷ kbps⌉, the nanoseconds of its
//     reservation's budget the packet uses, rounded up, so that a single
//     sketch monitors reservations of all bandwidths and all versions of an
//     EER share one budget.
//   - Counters are saturating 32-bit integers of those nanoseconds, and the
//     threshold T = ⌊(1+ε) · W⌋ for a window of W ns is fixed at New, below
//     2³²−1 (a 50 ms window: T = 55 000 000; a window past ~3.9 s at the
//     default ε is refused). Every decision is an integer comparison.
//   - A packet is flagged when the flow's estimate *before* it already
//     exceeds T: a packet is never evidence against itself (the token
//     bucket's granularity too: monitor.BurstFor admits one full-size
//     packet). Count-min never underestimates — rounding up and saturating
//     keep it so — so a flow whose exact count before a packet exceeds T is
//     flagged, and usage above T + s per window is always flagged: for
//     s ≪ W the plain (1+ε) bound; a flow whose packets never share a
//     window is not seen at all (DESIGN.md §3). False positives are
//     resolved by escalation to deterministic token-bucket monitoring,
//     exactly as in the paper.
//
// The detector keeps nothing per flow: who is under watch is the caller's
// table (monitor.FlowMonitor at the border router).
package ofd

import (
	"fmt"
	"math"

	"colibri/internal/reservation"
)

// Config parameterizes the detector.
type Config struct {
	// Depth is the number of sketch rows (default 4).
	Depth int
	// Width is the number of counters per row (default 4096), rounded up
	// to a power of two so that a row is indexed by a mask.
	Width int
	// WindowNs is the measurement window (default 50 ms). Its threshold
	// ⌊(1+Tolerance) · WindowNs⌋ must fit below 2³²−1: New refuses a longer
	// window, about 3.9 s at the default Tolerance.
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
	if c.Tolerance == 0 { //colibri:allow(determinism) — configuration time
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
	counters  []uint32 // depth × width, row-major, ns of budget, saturating
	mask      uint64   // width − 1
	seeds     []uint64
	winStart  int64
	threshold uint32 // ns of budget per window a flow may have used
}

// New builds a detector. It panics when the config's threshold does not fit
// below 2³²−1, where a saturated counter would no longer exceed it.
func New(cfg Config) *Detector {
	cfg.setDefaults()
	d := &Detector{
		cfg:       cfg,
		counters:  make([]uint32, cfg.Depth*cfg.Width),
		mask:      uint64(cfg.Width - 1),
		seeds:     make([]uint64, cfg.Depth),
		threshold: threshold(cfg),
	}
	// Fixed odd seeds; distinct per row.
	for i := range d.seeds {
		d.seeds[i] = 0x9E3779B97F4A7C15 * uint64(2*i+1)
	}
	return d
}

// threshold is ⌊(1+ε) · W⌋ in ns: a conforming flow transmits bw × window
// bits, i.e. normalized usage equal to the window length. It is the
// detector's one float product, taken once at configuration time, and it
// panics when the product does not fit below 2³²−1.
//
//colibri:allow(determinism) — configuration time
func threshold(cfg Config) uint32 {
	t := math.Floor((1 + cfg.Tolerance) * float64(cfg.WindowNs))
	if !(t >= 0 && t < math.MaxUint32) {
		panic(fmt.Sprintf("ofd: the threshold (1+%v) × %d ns does not fit in 32-bit counters", cfg.Tolerance, cfg.WindowNs))
	}
	return uint32(t)
}

// hash mixes the flow label with a row seed.
func hash(id reservation.ID, seed uint64) uint64 { return mix(label(id) ^ seed) }

// label packs the flow label into one word.
func label(id reservation.ID) uint64 { return uint64(id.SrcAS) ^ (uint64(id.Num) << 32) }

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Record accounts one packet and reports whether the flow's estimate in the
// current window was over the threshold before it. normNs is the packet's
// NormalizedSize: the nanoseconds of reservation budget it uses.
func (d *Detector) Record(id reservation.ID, normNs uint32, nowNs int64) bool {
	d.turn(nowNs)
	if d.cfg.Depth == 4 {
		return d.record4(id, normNs)
	}
	return d.recordRows(id, normNs)
}

// add is the counter c after n more ns, saturated at 2³²−1.
func add(c, n uint32) uint32 { return uint32(min(uint64(c)+uint64(n), math.MaxUint32)) }

// turn starts a new window, with every counter zero, once nowNs has left the
// current one.
func (d *Detector) turn(nowNs int64) {
	if nowNs-d.winStart >= d.cfg.WindowNs {
		clear(d.counters)
		d.winStart = nowNs - (nowNs-d.winStart)%d.cfg.WindowNs
		if nowNs-d.winStart >= d.cfg.WindowNs { // first call or long gap
			d.winStart = nowNs
		}
	}
}

// recordRows is Record's sketch update at any depth: row by row, the
// estimate the least counter before the packet.
func (d *Detector) recordRows(id reservation.ID, normNs uint32) bool {
	est := uint32(math.MaxUint32)
	for row := 0; row < d.cfg.Depth; row++ {
		idx := row*d.cfg.Width + int(hash(id, d.seeds[row])&d.mask)
		est = min(est, d.counters[idx])
		d.counters[idx] = add(d.counters[idx], normNs)
	}
	return est > d.threshold
}

// record4 is recordRows at the default depth of four, unrolled: the four
// rows' hashes and counter loads are independent, so the CPU overlaps them.
// It reads and writes the counters recordRows does and decides as it does.
func (d *Detector) record4(id reservation.ID, normNs uint32) bool {
	seeds, w, key := d.seeds[:4], d.cfg.Width, label(id)
	i0 := int(mix(key^seeds[0]) & d.mask)
	i1 := w + int(mix(key^seeds[1])&d.mask)
	i2 := 2*w + int(mix(key^seeds[2])&d.mask)
	i3 := 3*w + int(mix(key^seeds[3])&d.mask)
	c := d.counters
	c0, c1, c2, c3 := c[i0], c[i1], c[i2], c[i3]
	c[i0], c[i1], c[i2], c[i3] = add(c0, normNs), add(c1, normNs), add(c2, normNs), add(c3, normNs)
	return min(c0, c1, c2, c3) > d.threshold
}

// NormalizedSize converts a packet size and reservation bandwidth to the
// detector's input unit, nanoseconds of reservation budget: 8·10⁶ · bytes ÷
// kbps, rounded up so that the sketch never underestimates, and saturated at
// 2³²−1 (a packet past 4.3 s of its budget). A zero bandwidth gives 0.
func NormalizedSize(sizeBytes uint32, bwKbps uint64) uint32 {
	microbits := uint64(sizeBytes) * 8_000_000 // ns × kbps
	if bwKbps == 0 || microbits == 0 {
		return 0
	}
	return uint32(min((microbits-1)/bwKbps+1, math.MaxUint32))
}
