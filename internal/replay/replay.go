// Package replay implements in-network duplicate suppression (§2.3, §5.1;
// Lee et al., "The Case for In-Network Replay Suppression"): an on-path
// adversary replaying captured, correctly authenticated packets must not be
// able to consume a reservation's bandwidth or frame its owner.
//
// The suppressor keeps two Bloom filters covering adjacent time windows and
// rotates them, so that every packet identifier seen within the freshness
// window is remembered with bounded memory and no per-flow state.
//
// Contract (pinned by the tests):
//   - No false negatives inside a window: an identifier accepted less than
//     WindowNs ago is always rejected. After two windows without a packet
//     nothing is remembered.
//   - A fresh identifier is rejected (Bloom false positive, a dropped
//     legitimate packet) with probability FalsePositiveRate when the
//     window already holds ExpectedPackets identifiers, and less below
//     that load; the test allows 1.5× for sampling and the rounding of k.
//   - Memory is two filters of m = −n·ln p / (ln 2)² bits each, probed at
//     k = (m/n)·ln 2 positions spread over the whole filter (standard
//     double hashing; no blocking, so the textbook FP bound holds).
package replay

import (
	"math"
	"math/bits"
	"sync"

	"colibri/internal/telemetry"
)

// Config parameterizes the suppressor.
type Config struct {
	// WindowNs is the freshness window; packets older than two windows are
	// rejected by the freshness check before reaching the filter. Default
	// 200 ms (covering the ±0.1 s inter-AS clock skew the paper assumes).
	WindowNs int64
	// ExpectedPackets is the number of packets expected per window; sizes
	// the filter (default 1<<20).
	ExpectedPackets int
	// FalsePositiveRate is the target Bloom FP rate (default 1e-4).
	FalsePositiveRate float64
}

func (c *Config) setDefaults() {
	if c.WindowNs == 0 {
		c.WindowNs = 200 * 1e6
	}
	if c.ExpectedPackets == 0 {
		c.ExpectedPackets = 1 << 20
	}
	if c.FalsePositiveRate == 0 {
		c.FalsePositiveRate = 1e-4
	}
}

// Split scales the config for one of n data-plane shards: RSS pins each
// flow (and hence each packet identifier) to exactly one shard, so a shard's
// filter expects only ExpectedPackets/n insertions per window (floor 1<<10).
// The FP rate is a per-packet property and stays unchanged; n shard filters
// together use the memory of one full-size filter.
func (c Config) Split(n int) Config {
	c.setDefaults()
	if n > 1 {
		c.ExpectedPackets /= n
		if c.ExpectedPackets < 1<<10 {
			c.ExpectedPackets = 1 << 10
		}
	}
	return c
}

// Suppressor detects duplicate packet identifiers within the freshness
// window. Safe for concurrent use.
type Suppressor struct {
	mu       sync.Mutex
	cfg      Config
	cur      *bloom
	prev     *bloom
	curStart int64
	// curIns counts identifiers inserted into cur this window; an exact
	// insert count (unlike a popcount over the filter) is free to maintain.
	curIns int64
	// gauge, when set, mirrors curIns; updated under mu.
	gauge *telemetry.Gauge
}

// SetGauge attaches an occupancy gauge mirroring the number of identifiers
// inserted into the current window's filter; it resets to zero on window
// rotation.
func (s *Suppressor) SetGauge(g *telemetry.Gauge) {
	s.mu.Lock()
	s.gauge = g
	if g != nil {
		g.Set(s.curIns)
	}
	s.mu.Unlock()
}

// Inserted returns the number of identifiers recorded in the current window.
func (s *Suppressor) Inserted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curIns
}

// New builds a suppressor.
func New(cfg Config) *Suppressor {
	cfg.setDefaults()
	m, k := bloomParams(cfg.ExpectedPackets, cfg.FalsePositiveRate)
	return &Suppressor{
		cfg:  cfg,
		cur:  newBloom(m, k),
		prev: newBloom(m, k),
	}
}

// FreshAndUnique checks a packet identified by (the hash of) its unique
// per-source timestamp tuple. It returns false if the identifier was already
// seen within the last two windows (a replay or Bloom false positive), and
// records it otherwise. nowNs drives window rotation.
func (s *Suppressor) FreshAndUnique(id uint64, nowNs int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nowNs-s.curStart >= s.cfg.WindowNs {
		if nowNs-s.curStart >= 2*s.cfg.WindowNs {
			// Long silence: both windows are stale.
			s.prev.reset()
		} else {
			// The old current window becomes the previous one.
			s.cur, s.prev = s.prev, s.cur
		}
		s.cur.reset()
		s.curStart = nowNs
		s.curIns = 0
		if s.gauge != nil {
			s.gauge.Set(0)
		}
	}
	// One hash, then prev with early exit (a fresh identifier leaves at its
	// first clear bit), then a single pass over cur that sets the bits
	// while testing them: if all were already set the identifier is a
	// replay and the pass changed nothing.
	h1, h2 := mix(id)
	if s.prev.test(h1, h2) || !s.cur.testAndSet(h1, h2) {
		return false
	}
	s.curIns++
	if s.gauge != nil {
		s.gauge.Set(s.curIns)
	}
	return true
}

// bloom is a simple double-hashing Bloom filter over uint64 identifiers.
type bloom struct {
	bits []uint64
	m    uint64 // number of bits
	k    int
	// dirty is set by the first insert after a reset, so rotating a window
	// that saw no packet does not sweep megabytes of zeros.
	dirty bool
}

func bloomParams(n int, fp float64) (m uint64, k int) {
	// Standard sizing: m = -n ln p / (ln 2)^2, k = m/n ln 2.
	mf := -float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)
	m = uint64(mf)
	if m < 64 {
		m = 64
	}
	k = int(math.Round(mf / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return m, k
}

func newBloom(m uint64, k int) *bloom {
	return &bloom{bits: make([]uint64, (m+63)/64), m: m, k: k}
}

func (b *bloom) reset() {
	if b.dirty {
		clear(b.bits)
		b.dirty = false
	}
}

// mix derives the two base hashes for double hashing.
func mix(id uint64) (uint64, uint64) {
	h1 := id
	h1 ^= h1 >> 33
	h1 *= 0xFF51AFD7ED558CCD
	h1 ^= h1 >> 33
	h2 := id*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	h2 ^= h2 >> 29
	h2 *= 0xBF58476D1CE4E5B9
	h2 ^= h2 >> 32
	return h1, h2 | 1
}

// pos maps the i-th probe hash to a bit position in [0, m): the high word
// of h·m, a multiply where a 64-bit modulo would be a divide.
func (b *bloom) pos(h uint64) uint64 {
	hi, _ := bits.Mul64(h, b.m)
	return hi
}

// test reports whether every probe bit of (h1, h2) is set.
func (b *bloom) test(h1, h2 uint64) bool {
	for i := 0; i < b.k; i++ {
		p := b.pos(h1)
		if b.bits[p/64]&(1<<(p%64)) == 0 {
			return false
		}
		h1 += h2
	}
	return true
}

// testAndSet sets every probe bit of (h1, h2) and reports whether any of
// them was clear before, i.e. whether the identifier was new.
func (b *bloom) testAndSet(h1, h2 uint64) bool {
	var missing uint64
	for i := 0; i < b.k; i++ {
		p := b.pos(h1)
		w, bit := &b.bits[p/64], uint64(1)<<(p%64)
		missing |= ^*w & bit
		*w |= bit
		h1 += h2
	}
	if missing == 0 {
		return false
	}
	b.dirty = true
	return true
}

// PacketID builds the suppression identifier from the fields that uniquely
// identify a Colibri packet for a particular source: (SrcAS, ResID, Ts).
func PacketID(srcAS uint64, resID uint32, ts uint64) uint64 {
	x := srcAS ^ uint64(resID)<<17 ^ ts*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return x
}
