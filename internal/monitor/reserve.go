// Shared token reserves for the sharded data plane.
//
// When policing is split across N per-core shards, dividing a flow's rate by
// N starves bursty flows: RSS pins a flow to one shard, so that shard sees
// the flow's full packet stream but would own only 1/N of its tokens. The
// sharded monitor therefore inverts the split — shard-local buckets hold no
// refill of their own and act as pure claim caches, while the single shared
// Reserve carries the flow's FULL reserved rate and burst. A shard claims
// tokens from the reserve only on local exhaustion (one atomic CAS loop, no
// lock), optionally over-claiming a small chunk so steady traffic touches
// the shared word once every few packets instead of once per packet.
//
// This keeps both invariants at once: the aggregate across shards can never
// exceed the reserved rate (all tokens originate from the one full-rate
// reserve), and a single hot flow pinned to one shard still reaches its full
// reserved rate (that shard can claim everything).

package monitor

import (
	"math"
	"sync"
	"sync/atomic"

	"colibri/internal/reservation"
)

// microPerByte is the reserve's token granularity: tokens are kept in
// integer micro-bytes so that claims and refills are plain atomic int64
// transitions. 1 micro-byte of rounding per claim is far below any packet
// size, and int64 micro-bytes hold ~9.2 TB, far above any burst.
const microPerByte = 1e6

// Reserve is the shared token store of one flow policed across data-plane
// shards. It refills lazily on claim (the claimant that advances lastNs
// credits the elapsed interval) and is entirely lock-free: concurrent
// claimants from different shards contend only on two atomic words.
type Reserve struct {
	// tokens is the current fill in micro-bytes.
	tokens atomic.Int64
	// lastNs is the time of the last refill credit. Written only by Claim
	// (the claimant that wins the CAS advances it).
	lastNs atomic.Int64
	// rateBits holds math.Float64bits of the refill rate in micro-bytes per
	// nanosecond (== rateKbps/8, conveniently).
	rateBits atomic.Uint64
	// burstMicro is the capacity in micro-bytes.
	burstMicro atomic.Int64
	// holders counts the shard buckets holding it (the pool's lock guards it).
	holders int
}

// NewReserve builds a full reserve enforcing the flow's complete reserved
// rate (not rate/N — see the package comment on why the split is inverted).
func NewReserve(rateKbps uint64, nowNs int64) *Reserve {
	r := &Reserve{}
	r.lastNs.Store(nowNs)
	r.SetRate(rateKbps)
	r.tokens.Store(r.burstMicro.Load()) // starts full, like TokenBucket
	return r
}

// SetRate updates the enforced rate and resizes the burst, as a watch
// entry's rate change clips its TokenBucket. Rate changes are rare (EER renewals); the clamp below
// is racy against concurrent claims but only ever lowers the fill, which is
// the safe direction.
func (r *Reserve) SetRate(rateKbps uint64) {
	// kbps → micro-bytes per ns: rate * 1000 / 8 / 1e9 * 1e6 = rate / 8.
	r.rateBits.Store(math.Float64bits(float64(rateKbps) / 8))
	burst := int64(BurstBytesFor(rateKbps) * microPerByte)
	r.burstMicro.Store(burst)
	if t := r.tokens.Load(); t > burst {
		r.tokens.Store(burst)
	}
}

// Claim refills the reserve to nowNs and tries to withdraw at least
// needBytes, over-claiming up to chunkBytes extra when available so the
// caller's local cache absorbs the next few packets without touching the
// shared words. It returns the number of bytes granted: 0 if the reserve
// cannot cover needBytes (the packet does not conform anywhere — no other
// shard could have granted it either, since this is the only token source),
// otherwise a value ≥ needBytes.
//
//colibri:nomalloc
func (r *Reserve) Claim(needBytes, chunkBytes float64, nowNs int64) float64 {
	// Refill: whoever CASes lastNs forward owns the elapsed interval and
	// credits it. Timestamps need not be monotone; a stale nowNs credits
	// nothing (same lock-in as TokenBucket.Allow).
	burst := r.burstMicro.Load()
	for {
		last := r.lastNs.Load()
		if nowNs <= last {
			break
		}
		if r.lastNs.CompareAndSwap(last, nowNs) {
			rate := math.Float64frombits(r.rateBits.Load())
			credit := float64(nowNs-last) * rate
			if credit > float64(burst) {
				credit = float64(burst) // long idle: cap at capacity, no int64 overflow
			}
			if t := r.tokens.Add(int64(credit)); t > burst {
				// Clamp overshoot. A concurrent claim between the Add and
				// this correction can transiently read an above-burst fill;
				// the correction only removes the overshoot we added, so
				// tokens never go below what honest accounting allows.
				r.tokens.Add(burst - t)
			}
			break
		}
	}
	need := int64(math.Ceil(needBytes * microPerByte))
	chunk := int64(chunkBytes * microPerByte)
	for {
		cur := r.tokens.Load()
		if cur < need {
			return 0
		}
		take := need + chunk
		if take > cur {
			take = cur
		}
		if r.tokens.CompareAndSwap(cur, cur-take) {
			return float64(take) / microPerByte
		}
	}
}

// ReservePool maps reservation IDs to their shared reserves. All shard
// monitors of one sharded router/gateway share a pool; the pool's lock is
// touched only at flow creation and teardown, never per packet (shard
// buckets cache the *Reserve pointer).
type ReservePool struct {
	mu sync.Mutex
	m  map[reservation.ID]*Reserve
}

// NewReservePool builds an empty pool.
func NewReservePool() *ReservePool {
	return &ReservePool{m: make(map[reservation.ID]*Reserve)}
}

// Get returns the flow's reserve to one more holder, creating it at the full
// rateKbps on first sight.
func (p *ReservePool) Get(id reservation.ID, rateKbps uint64, nowNs int64) *Reserve {
	p.mu.Lock()
	r, ok := p.m[id]
	if !ok {
		r = NewReserve(rateKbps, nowNs)
		p.m[id] = r
	}
	r.holders++
	p.mu.Unlock()
	return r
}

// Release takes one holder's reserve back; the last one drops it, so shards
// that let a flow go at different times keep sharing one full-rate store.
func (p *ReservePool) Release(id reservation.ID) {
	p.mu.Lock()
	if r, ok := p.m[id]; ok {
		if r.holders--; r.holders <= 0 {
			delete(p.m, id)
		}
	}
	p.mu.Unlock()
}

// Len returns the number of tracked reserves.
//
//colibri:allow(testonly) — router's TestShardedWatchUnwatch counts the reserves a watch opens and an unwatch frees
func (p *ReservePool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.m)
}
