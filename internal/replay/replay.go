// Package replay implements in-network duplicate suppression (§2.3, §5.1;
// Lee et al., "The Case for In-Network Replay Suppression"): an on-path
// adversary replaying captured, correctly authenticated packets must not be
// able to consume a reservation's bandwidth or frame its owner.
//
// Filing by timestamp. A router forwards a packet only while |now − Ts| ≤ F,
// its freshness bound, and a byte-exact copy carries its original's Ts. The
// suppressor files every identifier under that Ts, in a ring of ⌈2F/W⌉ + 1
// buckets of W = WindowNs (⌊2F/W⌋ + 2 unless W divides 2F; 6 at the
// defaults): every bucket that meets [now − F, now + F] has a slot of its
// own, so a copy probes the bucket its original went into, and a slot is
// recycled only when its bucket's whole Ts range has left that interval —
// when no copy of anything in it can pass the freshness check.
//
// Sizing by traffic. A bucket is a chain of Bloom stages with the same k and
// target rate p, of sizes ExpectedPackets/4ʲ (not below 1 024 identifiers).
// The first is the smallest that holds four times the previous bucket's
// count; a stage below ExpectedPackets takes a quarter of its capacity, then
// the next size up opens; the ExpectedPackets stage takes the rest. A slot
// keeps one buffer per size and clears it only when reopening it dirty.
//
// Contract (pinned by the tests and FuzzSuppressor):
//   - No false negatives: a copy of an accepted identifier with the same Ts
//     is rejected while Ts is within ±F of now; nothing outside ±F is
//     accepted. A backward clock step is ignored (the latest reading is
//     kept), which can only cost drops.
//   - False positives ≤ p while a bucket holds ≤ ExpectedPackets
//     identifiers: the full stage runs at p, a quarter-loaded one at
//     (1 − 2^−¼)^k ≈ 4 × 10⁻¹¹ for the default p (tests allow 1.5 p).
//   - Memory: a stage for n identifiers is m = −n·ln p / (ln 2)² bits,
//     probed at k = (m/n)·ln 2 positions (double hashing, every probe
//     remixed, over the whole stage). Resident bytes never exceed
//     CeilingBytes, one buffer of every size per slot: < (⌈2F/W⌉ + 1) × 4/3
//     × m(ExpectedPackets), 19.2 MiB at the defaults and F = 500 ms. A load
//     at a fraction of the design rate touches about that fraction, and a
//     steady one allocates nothing.
package replay

import (
	"math"
	"math/bits"
	"sync"

	"colibri/internal/telemetry"
)

// Config parameterizes the suppressor.
type Config struct {
	// WindowNs is the width of one timestamp bucket (default 200 ms).
	WindowNs int64
	// ExpectedPackets is the number of identifiers one bucket holds at
	// FalsePositiveRate: the size of its largest stage (default 1<<20).
	ExpectedPackets int
	// FalsePositiveRate is the target Bloom FP rate (default 1e-4).
	FalsePositiveRate float64
}

// minStage is the smallest stage, in identifiers.
const minStage = 1 << 10

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
// buckets expect only ExpectedPackets/n identifiers (floor 1<<10). The FP
// rate is a per-packet property and stays unchanged; n shard ceilings add
// up to one suppressor's.
func (c Config) Split(n int) Config {
	c.setDefaults()
	if n > 1 {
		c.ExpectedPackets = max(c.ExpectedPackets/n, minStage)
	}
	return c
}

// size is one stage size: its capacity in identifiers and its bits.
type size struct {
	ids int64
	m   uint64
}

// sizes lists the stage sizes, smallest first.
func (c Config) sizes() (out []size) {
	for n := c.ExpectedPackets; ; n /= 4 {
		m, _ := bloomParams(n, c.FalsePositiveRate)
		out = append([]size{{int64(n), m}}, out...)
		if n/4 < minStage {
			return out
		}
	}
}

// ringLen is the most buckets [now − F, now + F] meets: ⌈2F/W⌉ + 1.
func (c Config) ringLen(freshnessNs int64) int {
	return int((2*freshnessNs-1)/c.WindowNs) + 2
}

// CeilingBytes is the most a suppressor built by NewCovering(c, freshnessNs)
// ever holds: one buffer of every stage size in every slot.
func (c Config) CeilingBytes(freshnessNs int64) int64 {
	c.setDefaults()
	var words int64
	for _, sz := range c.sizes() {
		words += int64(sz.m+63) / 64
	}
	return 8 * words * int64(c.ringLen(freshnessNs))
}

// Suppressor detects duplicate packet identifiers while their timestamps
// are fresh. Safe for concurrent use.
type Suppressor struct {
	mu      sync.Mutex
	window  int64
	horizon int64 // F: Check accepts Ts within ±horizon of now
	k       int
	sizes   []size
	ring    []slot
	now     int64 // the latest clock reading
	// last caches the slot of the previous Check and its Ts range [lo, hi).
	last   *slot
	lo, hi int64
	// top is the newest bucket opened, whose count window_inserts follows.
	top      int64
	resident int64 // bytes of all stage buffers
	// inserts and bytes, when set, mirror top's count and resident.
	inserts, bytes *telemetry.Gauge
}

// slot is one ring entry: the chain of stages of one bucket.
type slot struct {
	bucket int64 // floor(Ts / WindowNs) of the identifiers filed here
	n      int64 // identifiers filed under bucket
	// first and cur index the sizes of the chain's first and current
	// (largest, the one inserts go to) stage; curN counts cur's identifiers.
	first, cur int
	curN       int64
	stages     []stage // one per size, buffers allocated on first use
}

// stage is one Bloom filter of m bits; dirty records an insert since its
// last clear.
type stage struct {
	bits  []uint64
	m     uint64
	dirty bool
}

// New builds a suppressor covering timestamps within ±WindowNs of now.
func New(cfg Config) *Suppressor {
	cfg.setDefaults()
	return NewCovering(cfg, cfg.WindowNs)
}

// NewCovering builds a suppressor covering timestamps within ±freshnessNs
// of now: the router passes its own freshness bound.
func NewCovering(cfg Config, freshnessNs int64) *Suppressor {
	cfg.setDefaults()
	sizes := cfg.sizes()
	_, k := bloomParams(cfg.ExpectedPackets, cfg.FalsePositiveRate)
	s := &Suppressor{
		window:  cfg.WindowNs,
		horizon: freshnessNs,
		k:       k,
		sizes:   sizes,
		ring:    make([]slot, cfg.ringLen(freshnessNs)),
		now:     math.MinInt64,
		top:     math.MinInt64,
	}
	for i := range s.ring {
		s.ring[i] = slot{bucket: math.MinInt64, stages: make([]stage, len(sizes))}
	}
	s.last = &s.ring[0] // with the empty range [0, 0)
	return s
}

// SetGauges attaches two gauges, either may be nil: inserts mirrors the
// number of identifiers filed under the newest bucket; bytes counts the
// resident bytes of all stage buffers (by Add, so the shards of a sharded
// router sum into one gauge).
func (s *Suppressor) SetGauges(inserts, bytes *telemetry.Gauge) {
	s.mu.Lock()
	s.inserts, s.bytes = inserts, bytes
	if bytes != nil {
		bytes.Add(s.resident)
	}
	s.mu.Unlock()
}

// FreshAndUnique is Check for a packet stamped now.
func (s *Suppressor) FreshAndUnique(id uint64, nowNs int64) bool { return s.Check(id, nowNs, nowNs) }

// Check reports whether a packet identified by (the hash of) its unique
// per-source timestamp tuple, stamped tsNs, is fresh and seen for the first
// time, and records it if so. It returns false for a Ts outside ±F of now
// and for an identifier already filed under Ts's bucket (a replay or a
// Bloom false positive).
func (s *Suppressor) Check(id uint64, tsNs, nowNs int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nowNs < s.now {
		nowNs = s.now
	}
	s.now = nowNs
	if tsNs < nowNs-s.horizon || tsNs > nowNs+s.horizon {
		return false
	}
	sl := s.last
	if tsNs < s.lo || tsNs >= s.hi {
		sl = s.file(tsNs)
	}
	// One hash; the chain's older stages tested with early exit (a fresh
	// identifier leaves at its first clear bit), then a single pass over the
	// current stage that sets the bits while testing them: if all were
	// already set the identifier is a replay and the pass changed nothing.
	h1, h2 := mix(id)
	for c := sl.first; c < sl.cur; c++ {
		if sl.stages[c].test(h1, h2, s.k) {
			return false
		}
	}
	if !sl.stages[sl.cur].testAndSet(h1, h2, s.k) {
		return false
	}
	sl.n++
	if sl.curN++; sl.cur < len(s.sizes)-1 && 4*sl.curN >= s.sizes[sl.cur].ids {
		s.open(sl, sl.cur+1)
	}
	if s.inserts != nil && sl.bucket == s.top {
		s.inserts.Set(sl.n)
	}
	return true
}

// file returns the slot of tsNs's bucket, recycling the slot if it holds
// another bucket, and caches it for the next Check. Every bucket that meets
// [now − F, now + F] maps to a slot of its own and now never runs
// backwards, so the bucket a live one displaces has left that interval for
// good.
func (s *Suppressor) file(tsNs int64) *slot {
	b := tsNs / s.window
	if tsNs%s.window < 0 {
		b-- // floor
	}
	n := int64(len(s.ring))
	sl := &s.ring[(b%n+n)%n]
	if sl.bucket != b {
		// Size the first stage for four times the previous bucket's count.
		var prev int64
		if p := &s.ring[((b-1)%n+n)%n]; p.bucket == b-1 {
			prev = p.n
		}
		c := 0
		for c < len(s.sizes)-1 && s.sizes[c].ids < 4*prev {
			c++
		}
		sl.bucket, sl.n, sl.first = b, 0, c
		s.open(sl, c)
		s.top = max(s.top, b)
	}
	s.last, s.lo, s.hi = sl, b*s.window, (b+1)*s.window
	return sl
}

// open makes size c the slot's current stage: its buffer allocated on first
// use, cleared if it took an insert since it was last cleared.
func (s *Suppressor) open(sl *slot, c int) {
	st := &sl.stages[c]
	switch {
	case st.bits == nil:
		*st = stage{bits: make([]uint64, (s.sizes[c].m+63)/64), m: s.sizes[c].m}
		s.resident += 8 * int64(len(st.bits))
		if s.bytes != nil {
			s.bytes.Add(8 * int64(len(st.bits)))
		}
	case st.dirty:
		clear(st.bits)
		st.dirty = false
	}
	sl.cur, sl.curN = c, 0
}

func bloomParams(n int, fp float64) (m uint64, k int) {
	// Standard sizing: m = -n ln p / (ln 2)^2, k = m/n ln 2.
	mf := -float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)
	return max(uint64(mf), 64), min(max(int(math.Round(mf/float64(n)*math.Ln2)), 1), 16)
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

// pos maps a probe hash to a bit position in [0, m): the high word of h·m, a
// multiply where a 64-bit modulo would be a divide. h is remixed first: the
// raw probes h₁ + i·h₂ lie h₂·m/2⁶⁴ bits apart, so for an h₂ near a small
// fraction of 2⁶⁴ all k would land on a few bits.
func (b *stage) pos(h uint64) uint64 {
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	hi, _ := bits.Mul64(h, b.m)
	return hi
}

// test reports whether every probe bit of (h1, h2) is set.
func (b *stage) test(h1, h2 uint64, k int) bool {
	for i := 0; i < k; i++ {
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
func (b *stage) testAndSet(h1, h2 uint64, k int) bool {
	var missing uint64
	for i := 0; i < k; i++ {
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
