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
// Sizing by traffic. A bucket is a chain of Bloom stages of sizes
// ExpectedPackets/4ʲ identifiers (not below 1 024). The first is the
// smallest that holds four times the previous bucket's count; a stage below
// ExpectedPackets takes a quarter of its capacity, then the next size up
// opens; the ExpectedPackets stage takes the rest. A slot keeps one buffer
// per size and clears it only when reopening it dirty.
//
// Layout. A stage is an array of 64-byte blocks, the first on a cache-line
// boundary (Putze, Sanders & Singler, "Cache-, hash- and space-efficient
// Bloom filters", 2007): one hash of the identifier picks the block, and
// the identifier sets two bits, drawn independently, in each of the block's
// eight words (k = 16), so a probed stage costs one cache line and one pass
// over it. The ExpectedPackets stage is sized for the blocks' uneven load
// by blockedFP, a bound on its rate at Poisson(λ) identifiers per block: it
// gets the fewest blocks for which that bound is ≤ p — for the default p,
// 1.20 × the textbook m = −n·ln p / (ln 2)² bits. A smaller stage keeps the
// textbook m, rounded up to whole blocks: it only ever fills to a quarter,
// where the bound is 3.1 × 10⁻⁹.
//
// Contract (pinned by the tests and FuzzSuppressor):
//   - No false negatives: a copy of an accepted identifier with the same Ts
//     is rejected while Ts is within ±F of now; nothing outside ±F is
//     accepted. A backward clock step is ignored (the latest reading is
//     kept), which can only cost drops.
//   - False positives ≤ p while a bucket holds ≤ ExpectedPackets
//     identifiers: the full stage runs at p, a quarter-loaded smaller one
//     at ≤ 3.1 × 10⁻⁹ for the default p (tests allow 1.5 p at design load,
//     and 0 in 10⁷ probes of each quarter-loaded size).
//   - Memory: resident bytes never exceed CeilingBytes, one buffer of every
//     size per slot: about (⌈2F/W⌉ + 1) × (1.20 + 1/3) × m(ExpectedPackets),
//     22.1 MiB at the defaults and F = 500 ms. A load at a fraction of the
//     design rate touches about that fraction, and a steady one allocates
//     nothing.
package replay

import (
	"math"
	"math/bits"
	"unsafe"

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

const (
	// minStage is the smallest stage, in identifiers.
	minStage = 1 << 10
	// blockWords is one block, a 64-byte cache line, in words. An identifier
	// sets two bits in every word of its block: k = 16.
	blockWords = 8
	// blockBits is one block in bits.
	blockBits = 64 * blockWords
)

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

// size is one stage size: its capacity in identifiers and its blocks.
type size struct {
	ids int64
	nb  uint64
}

// words is the length of a stage buffer of this size: its blocks and the
// slack that lets the first start on a 64-byte boundary.
func (sz size) words() int { return int(sz.nb)*blockWords + blockWords - 1 }

// sizes lists the stage sizes, smallest first: the ExpectedPackets stage
// from blockedSize, every smaller one the textbook m in whole blocks.
func (c Config) sizes() (out []size) {
	out = []size{{int64(c.ExpectedPackets), blockedSize(c.ExpectedPackets, c.FalsePositiveRate)}}
	for n := c.ExpectedPackets / 4; n >= minStage; n /= 4 {
		m := bloomParams(n, c.FalsePositiveRate)
		out = append([]size{{int64(n), (m + blockBits - 1) / blockBits}}, out...)
	}
	return out
}

// ringLen is the most buckets [now − F, now + F] meets: ⌈2F/W⌉ + 1.
func (c Config) ringLen(freshnessNs int64) int {
	return int((2*freshnessNs-1)/c.WindowNs) + 2
}

// CeilingBytes is the most a suppressor built by NewCovering(c, freshnessNs)
// ever holds: one buffer of every stage size in every slot.
//
//colibri:allow(testonly) — core's TestReplayFilterBytesGauge holds each router's gauge under it
func (c Config) CeilingBytes(freshnessNs int64) int64 {
	c.setDefaults()
	var words int64
	for _, sz := range c.sizes() {
		words += int64(sz.words())
	}
	return 8 * words * int64(c.ringLen(freshnessNs))
}

// Suppressor detects duplicate packet identifiers while their timestamps
// are fresh. It takes no lock: one goroutine at a time owns it, as one core
// owns a border router's filter (router.Sharded gives each shard its own).
type Suppressor struct {
	window  int64
	horizon int64 // F: Check accepts Ts within ±horizon of now
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

// stage is one blocked Bloom filter of nb blocks; dirty records an insert
// since its last clear.
type stage struct {
	blocks []uint64 // nb blocks of blockWords words, the first 64-byte aligned
	nb     uint64
	dirty  bool
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
	s := &Suppressor{
		window:  cfg.WindowNs,
		horizon: freshnessNs,
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
	s.inserts, s.bytes = inserts, bytes
	if bytes != nil {
		bytes.Add(s.resident)
	}
}

// FreshAndUnique is Check for a packet stamped now.
func (s *Suppressor) FreshAndUnique(id uint64, nowNs int64) bool { return s.Check(id, nowNs, nowNs) }

// Check reports whether a packet identified by (the hash of) its unique
// per-source timestamp tuple, stamped tsNs, is fresh and seen for the first
// time, and records it if so. It returns false for a Ts outside ±F of now
// and for an identifier already filed under Ts's bucket (a replay or a
// Bloom false positive).
func (s *Suppressor) Check(id uint64, tsNs, nowNs int64) bool {
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
	// One hash; the chain's older stages tested (a fresh identifier misses
	// in its block), then the current stage's block tested and set in one
	// pass: if all its bits were already set the identifier is a replay and
	// the pass changed nothing.
	pr := hash(id)
	for c := sl.first; c < sl.cur; c++ {
		if sl.stages[c].test(pr) {
			return false
		}
	}
	if !sl.stages[sl.cur].testAndSet(pr) {
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
	switch sz := s.sizes[c]; {
	case st.blocks == nil:
		*st = stage{blocks: alignedBlocks(sz.words()), nb: sz.nb}
		s.resident += 8 * int64(sz.words())
		if s.bytes != nil {
			s.bytes.Add(8 * int64(sz.words()))
		}
	case st.dirty:
		clear(st.blocks)
		st.dirty = false
	}
	sl.cur, sl.curN = c, 0
}

// alignedBlocks allocates a buffer of n words and returns the part of it
// from the first 64-byte boundary on, blockWords − 1 words short of n. Go's
// collector does not move heap objects, so the boundary holds.
func alignedBlocks(n int) []uint64 {
	buf := make([]uint64, n)
	skip := (-uintptr(unsafe.Pointer(&buf[0])) % (8 * blockWords)) / 8
	return buf[skip : int(skip)+n-(blockWords-1)]
}

// bloomParams is the textbook size of a filter for n identifiers at rate
// fp, m = −n ln p / (ln 2)² bits (at k = (m/n) ln 2 free positions).
func bloomParams(n int, fp float64) (m uint64) {
	return max(uint64(-float64(n)*math.Log(fp)/(math.Ln2*math.Ln2)), 64)
}

// blockedSize is the fewest blocks that hold n identifiers at a rate
// blockedFP bounds by fp.
func blockedSize(n int, fp float64) uint64 {
	fits := func(nb uint64) bool { return blockedFP(float64(n)/float64(nb)) <= fp }
	m := bloomParams(n, fp)
	lo, hi := m/blockBits, 2*m/blockBits+1 // the textbook bits are too few
	for !fits(hi) {
		lo, hi = hi, 2*hi
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; fits(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// blockedFP bounds the false-positive rate of a stage at lambda identifiers
// per block. A block's load j is Poisson(λ). Each identifier sets two bits
// drawn independently in each of the block's eight words, so a word holding
// j identifiers has each bit set with probability f = 1 − (63/64)^{2j}; a
// probe's two draws in a word are one bit with probability 1/64, and d given
// bits of a word are all set with probability at most f^d, since a word's
// occupancy is negatively associated and the words are independent.
func blockedFP(lambda float64) float64 {
	pj, rj, fp := math.Exp(-lambda), 1.0, 0.0
	for j := 0; float64(j) < lambda+8*math.Sqrt(lambda)+24; j++ { // past it, Poisson mass < 10⁻¹⁴
		if j > 0 {
			pj *= lambda / float64(j)
			rj *= (63. / 64) * (63. / 64)
		}
		f := 1 - rj
		word := f*f*63/64 + f/64
		word *= word // word⁸: all eight words hit
		word *= word
		fp += pj * word * word
	}
	return fp
}

// probe is what an identifier probes in every stage: blk picks its block,
// and lo and hi hold its two 6-bit positions in each word of a block, 12
// bits a word, words 0–3 from lo and 4–7 from hi.
type probe struct{ blk, lo, hi uint64 }

// hash derives an identifier's probe from three consecutive outputs of
// splitmix64 seeded with it.
func hash(id uint64) probe {
	return probe{splitmix(&id), splitmix(&id), splitmix(&id)}
}

func splitmix(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// wordMask is the two bits of a word that the low 12 bits of x pick.
func wordMask(x uint64) uint64 { return 1<<(x&63) | 1<<(x>>6&63) }

// block returns the block h picks: the high word of h·nb.
func (b *stage) block(h uint64) *[blockWords]uint64 {
	i, _ := bits.Mul64(h, b.nb)
	return (*[blockWords]uint64)(b.blocks[i*blockWords:])
}

// test reports whether every probe bit of pr is set in its block, leaving
// at the first word that misses one.
func (b *stage) test(pr probe) bool {
	blk, x := b.block(pr.blk), pr.lo
	for w := range blk {
		if w == blockWords/2 {
			x = pr.hi
		}
		if m := wordMask(x); blk[w]&m != m {
			return false
		}
		x >>= 12
	}
	return true
}

// testAndSet sets every probe bit of pr in its block and reports whether
// any of them was clear before, i.e. whether the identifier was new.
func (b *stage) testAndSet(pr probe) bool {
	blk, x := b.block(pr.blk), pr.lo
	var missing uint64
	for w := range blk {
		if w == blockWords/2 {
			x = pr.hi
		}
		m := wordMask(x)
		missing |= m &^ blk[w]
		blk[w] |= m
		x >>= 12
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
