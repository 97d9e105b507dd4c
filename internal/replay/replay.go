// Package replay implements in-network duplicate suppression (§2.3, §5.1;
// Lee et al., "The Case for In-Network Replay Suppression"): an on-path
// adversary replaying captured, correctly authenticated packets must not be
// able to consume a reservation's bandwidth or frame its owner.
//
// Filing by timestamp. A router forwards a packet only while |now − Ts| ≤ F,
// its freshness bound, and a byte-exact copy carries its original's Ts. The
// suppressor files every identifier under that Ts, in a ring of ⌈2F/W⌉ + 1
// buckets of W = WindowNs (⌊2F/W⌋ + 2 unless W divides 2F; 21 at the
// defaults, W = 50 ms and F = 500 ms): every bucket that meets
// [now − F, now + F] has a slot of its own, so a copy probes the bucket its
// original went into, and a slot is recycled only when its bucket's whole
// Ts range has left that interval — when no copy of anything in it can pass
// the freshness check. Since now only runs forwards, a bucket whose range
// lies below now − F never matches again, and at most ⌈F/W⌉ + 1 buckets
// stamped up to now can: the suppressor's memory follows the traffic of
// F + W, not of the whole ring.
//
// Sizing by traffic. A bucket is a chain of Bloom stages on a ladder of
// sizes ExpectedPackets/4ʲ identifiers (not below 1 024). The first takes
// the smallest rung that holds four times the previous bucket's count, cut
// down to hold five times that count when this is smaller and the rung is
// not the ExpectedPackets one, so a bucket with its predecessor's traffic
// ends at a fifth of its first stage. A stage below ExpectedPackets takes a
// quarter of its own capacity, then the next rung up opens; the
// ExpectedPackets stage takes the rest.
//
// Buffers. The suppressor, not the slot, owns the stage buffers. When a
// bucket opens, every bucket whose range lies below now − F first returns
// its chain's buffers to a free list per rung; a stage takes the buffer its
// rung's list freed last and allocates only when the list is empty, or
// reallocates when the buffer it drew holds fewer blocks than it needs. A
// stage uses a prefix of its buffer and clears, when opened, only the part
// of that prefix an insert dirtied. Buffers are drawn by list position, not
// by address or map order, so a load draws the same buffers every run.
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
// textbook m for its capacity, rounded up to whole blocks: it only ever
// fills to a quarter, where the bound is 3.1 × 10⁻⁹.
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
//     rung per slot, as a rung allocates only while all its buffers serve
//     live chains: about (⌈2F/W⌉ + 1) × (1.20 + 1/3) × m(ExpectedPackets),
//     19.3 MiB at the defaults. A steady load holds about one stage for five
//     times its bucket count in each of the ⌈F/W⌉ + 1 buckets that can still
//     match, and allocates nothing.
package replay

import (
	"math"
	"math/bits"
	"unsafe"

	"colibri/internal/telemetry"
)

// Config parameterizes the suppressor.
type Config struct {
	// WindowNs is the width of one timestamp bucket (default 50 ms).
	WindowNs int64
	// ExpectedPackets is the number of identifiers one bucket holds at
	// FalsePositiveRate: the size of its largest stage (default 1<<18).
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
		c.WindowNs = 50 * 1e6
	}
	if c.ExpectedPackets == 0 {
		c.ExpectedPackets = 1 << 18
	}
	if c.FalsePositiveRate == 0 { //colibri:allow(determinism) — configuration time
		c.FalsePositiveRate = 1e-4
	}
}

// Split scales the config for one of n data-plane shards: RSS pins each
// flow (and hence each packet identifier) to exactly one shard, so a shard's
// buckets expect ExpectedPackets/n identifiers (floor 1<<10), or more: a
// shard's ladder reaches minStage in fewer rungs than the whole one's, and
// fewer rungs hold fewer bytes per identifier, so a shard's ExpectedPackets
// grows to the size whose n ceilings come nearest one suppressor's — a rung
// more where the growth reaches it. n shard ceilings then add up to one
// suppressor's within 1 %, but where that cannot hold
// (TestSplitParitySweep pins each bound):
//   - a rung boundary: a shard's ladder gains its smallest rung at 4 096
//     and 16 384 identifiers, a jump in bytes no size splits, and a target
//     inside it leaves n ceilings up to 9.6 % and 2.2 % off, to the nearer
//     side;
//   - small shards: under 2 048 identifiers, a stage's alignment slack, the
//     blocked stage's Poisson margin and whole 64-byte blocks leave n
//     ceilings from 1.1 % short to 2.7 % over;
//   - the floor: where ExpectedPackets/n is below 1<<10, n shard ceilings
//     can exceed one suppressor's by up to n × 1<<10 identifiers' worth.
//
// The FP rate is a per-packet property and stays unchanged.
func (c Config) Split(n int) Config {
	c.setDefaults()
	if n > 1 {
		whole, most := c.slotBytes(), c.ExpectedPackets
		lo := max(most/n, minStage)
		c.ExpectedPackets = lo
		for hi := most; lo < hi; { // n·slotBytes grows with ExpectedPackets
			mid := c
			mid.ExpectedPackets = lo + (hi-lo+1)/2
			if int64(n)*mid.slotBytes() <= whole {
				lo, c = mid.ExpectedPackets, mid
			} else {
				hi = mid.ExpectedPackets - 1
			}
		}
		// The next size up may land nearer: past a rung boundary it adds
		// the rung, a jump no smaller size can split.
		if up := c; lo < most {
			up.ExpectedPackets++
			if int64(n)*up.slotBytes()-whole < whole-int64(n)*c.slotBytes() {
				c = up
			}
		}
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

// sizes lists the ladder of stage sizes, smallest first: the
// ExpectedPackets stage from blockedSize, every smaller one textbook.
func (c Config) sizes() (out []size) {
	out = []size{{int64(c.ExpectedPackets), blockedSize(c.ExpectedPackets, c.FalsePositiveRate)}}
	for n := c.ExpectedPackets / 4; n >= minStage; n /= 4 {
		out = append([]size{textbook(int64(n), c.FalsePositiveRate)}, out...)
	}
	return out
}

// textbook is a stage for n identifiers of the textbook m in whole blocks.
func textbook(n int64, fp float64) size {
	return size{n, (bloomParams(int(n), fp) + blockBits - 1) / blockBits}
}

// ringLen is the most buckets [now − F, now + F] meets: ⌈2F/W⌉ + 1.
func (c Config) ringLen(freshnessNs int64) int {
	return int((2*freshnessNs-1)/c.WindowNs) + 2
}

// CeilingBytes is the most a suppressor built by NewCovering(c, freshnessNs)
// ever holds: one buffer of every stage size per slot, as a rung allocates
// a buffer only while every one it has belongs to a live chain.
//
//colibri:allow(testonly) — core's TestReplayFilterBytesGauge holds each router's gauge under it
func (c Config) CeilingBytes(freshnessNs int64) int64 {
	c.setDefaults()
	return c.slotBytes() * int64(c.ringLen(freshnessNs))
}

// slotBytes is one buffer of every stage size, in bytes.
func (c Config) slotBytes() int64 {
	var words int64
	for _, sz := range c.sizes() {
		words += int64(sz.words())
	}
	return 8 * words
}

// Suppressor detects duplicate packet identifiers while their timestamps
// are fresh. It takes no lock: one goroutine at a time owns it, as one core
// owns a border router's filter (router.Sharded gives each shard its own).
type Suppressor struct {
	window  int64
	horizon int64 // F: Check accepts Ts within ±horizon of now
	fp      float64
	sizes   []size // the ladder
	ring    []slot
	// free holds, per rung, the buffers no chain that can still match holds,
	// the last one returned drawn first.
	free [][]buffer
	now  int64 // the latest clock reading
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
	// first and cur index the rungs of the chain's first and current
	// (largest, the one inserts go to) stage; curN counts cur's identifiers.
	first, cur int
	curN       int64
	// stages has one entry per rung; those from first to cur hold a buffer
	// until a bucket opens after this one has left [now − F, now + F].
	stages []stage
}

// buffer is a stage's storage: whole blocks of blockWords words, the first
// 64-byte aligned, of which the first dirty may hold bits of an insert since
// their last clear.
type buffer struct {
	blocks []uint64
	dirty  uint64
}

// stage is one blocked Bloom filter of capacity ids in the first nb blocks
// of its buffer.
type stage struct {
	buffer
	nb  uint64
	ids int64
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
		fp:      cfg.FalsePositiveRate,
		sizes:   sizes,
		ring:    make([]slot, cfg.ringLen(freshnessNs)),
		free:    make([][]buffer, len(sizes)),
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
	if sl.curN++; sl.cur < len(s.sizes)-1 && 4*sl.curN >= sl.stages[sl.cur].ids {
		s.open(sl, sl.cur+1, s.sizes[sl.cur+1])
	}
	if s.inserts != nil && sl.bucket == s.top {
		s.inserts.Set(sl.n)
	}
	return true
}

// bucket is floor(tsNs / WindowNs), the bucket tsNs is filed under.
func (s *Suppressor) bucket(tsNs int64) int64 {
	b := tsNs / s.window
	if tsNs%s.window < 0 {
		b--
	}
	return b
}

// file returns the slot of tsNs's bucket, recycling the slot if it holds
// another bucket, and caches it for the next Check. Every bucket that meets
// [now − F, now + F] maps to a slot of its own and now never runs
// backwards, so the bucket a live one displaces has left that interval for
// good, and release has already returned its buffers.
func (s *Suppressor) file(tsNs int64) *slot {
	b := s.bucket(tsNs)
	n := int64(len(s.ring))
	sl := &s.ring[(b%n+n)%n]
	if sl.bucket != b {
		s.release()
		// Size the first stage for the previous bucket's count: the rung
		// that holds four times it, or, below the ExpectedPackets rung, a
		// textbook stage for five times it if that is smaller and over
		// minStage.
		var prev int64
		if p := &s.ring[((b-1)%n+n)%n]; p.bucket == b-1 {
			prev = p.n
		}
		c := 0
		for c < len(s.sizes)-1 && s.sizes[c].ids < 4*prev {
			c++
		}
		sz := s.sizes[c]
		if ids := 5 * prev; ids > minStage && ids < sz.ids && c < len(s.sizes)-1 {
			sz = textbook(ids, s.fp)
		}
		sl.bucket, sl.n, sl.first = b, 0, c
		s.open(sl, c, sz)
		s.top = max(s.top, b)
	}
	s.last, s.lo, s.hi = sl, b*s.window, (b+1)*s.window
	return sl
}

// release returns to the free lists the buffers of every bucket whose whole
// Ts range lies below now − F: the freshness check refuses every copy of
// what was filed there, so nothing will probe it again. A bucket keeps its
// count, which sizes its successor's first stage.
func (s *Suppressor) release() {
	low := s.bucket(s.now - s.horizon) // the oldest bucket that can still match
	for i := range s.ring {
		sl := &s.ring[i]
		if sl.stages[sl.first].blocks == nil || sl.bucket >= low {
			continue
		}
		for c := sl.first; c <= sl.cur; c++ {
			s.free[c] = append(s.free[c], sl.stages[c].buffer)
			sl.stages[c].buffer = buffer{}
		}
	}
}

// open makes rung c, at size sz, the slot's current stage: its buffer the
// rung's last freed one, (re)allocated only when that holds fewer than sz.nb
// blocks or the free list is empty, and the part of the prefix it uses that
// an insert dirtied cleared. So a rung never holds more buffers than there
// are live chains on it at once.
func (s *Suppressor) open(sl *slot, c int, sz size) {
	st := &sl.stages[c]
	if free := s.free[c]; len(free) > 0 {
		st.buffer, s.free[c] = free[len(free)-1], free[:len(free)-1]
	}
	if held := uint64(len(st.blocks)) / blockWords; sz.nb > held {
		grown := 8 * int64(sz.words())
		if held > 0 {
			grown -= 8 * int64(size{nb: held}.words())
		}
		st.blocks, st.dirty = alignedBlocks(sz.words()), 0
		s.resident += grown
		if s.bytes != nil {
			s.bytes.Add(grown)
		}
	}
	clear(st.blocks[:min(st.dirty, sz.nb)*blockWords])
	if st.dirty <= sz.nb {
		st.dirty = 0
	}
	st.nb, st.ids = sz.nb, sz.ids
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
//
//colibri:allow(determinism) — sizing, at configuration time
func bloomParams(n int, fp float64) (m uint64) {
	return max(uint64(-float64(n)*math.Log(fp)/(math.Ln2*math.Ln2)), 64)
}

// blockedSize is the fewest blocks that hold n identifiers at a rate
// blockedFP bounds by fp.
//
//colibri:allow(determinism) — sizing, at configuration time
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
//
//colibri:allow(determinism) — sizing, at configuration time
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
	b.dirty = max(b.dirty, b.nb)
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
