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
	"sync"
	"sync/atomic"

	"colibri/internal/reservation"
)

// Reserve is the shared token store of one flow policed across data-plane
// shards. It refills lazily on claim (the claimant that advances lastNs
// credits the elapsed interval) and is entirely lock-free: concurrent
// claimants from different shards contend only on two atomic words. Its fill
// is in TokenBucket's unit, micro-bits, and every change of it is one
// compare-and-swap from a value read to the value it implies, so no
// interleaving of claims, refills and rate changes mints a token or drives
// the fill below zero.
type Reserve struct {
	// fill is the current fill in micro-bits, at most the rate's burst.
	fill atomic.Uint64
	// lastNs is the time of the last refill credit. Written only by Claim
	// (the claimant that wins the CAS advances it).
	lastNs atomic.Int64
	// rateKbps is the refill rate; the burst is BurstFor(rateKbps).
	rateKbps atomic.Uint32
	// holders counts the shard buckets holding it (the pool's lock guards it).
	holders int
}

// NewReserve builds a full reserve enforcing the flow's complete reserved
// rate (not rate/N — see the package comment on why the split is inverted).
func NewReserve(rateKbps uint32, nowNs int64) *Reserve {
	r := &Reserve{}
	r.lastNs.Store(nowNs)
	r.rateKbps.Store(rateKbps)
	r.fill.Store(BurstFor(rateKbps)) // starts full, like TokenBucket
	return r
}

// SetRate updates the enforced rate and with it the burst, as a watch
// entry's rate change clips its TokenBucket: the fill is cut to the new
// burst by a compare-and-swap, so a claim that lands in between is kept.
func (r *Reserve) SetRate(rateKbps uint32) {
	r.rateKbps.Store(rateKbps)
	r.add(0, BurstFor(rateKbps))
}

// add moves the fill to min(fill + credit, burst) in one compare-and-swap
// from the value it read.
func (r *Reserve) add(credit, burst uint64) {
	for {
		cur := r.fill.Load()
		next := min(cur+credit, burst)
		if next == cur || r.fill.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Claim refills the reserve to nowNs and tries to withdraw at least need
// micro-bits, over-claiming up to chunk more when available so the caller's
// local cache absorbs the next few packets without touching the shared
// words. It returns the micro-bits granted: 0 if the reserve cannot cover
// need (the packet does not conform anywhere — no other shard could have
// granted it either, since this is the only token source), otherwise a value
// ≥ need.
//
//colibri:nomalloc
func (r *Reserve) Claim(need, chunk uint64, nowNs int64) uint64 {
	// Refill: whoever CASes lastNs forward owns the elapsed interval and
	// credits it. Timestamps need not be monotone; a stale nowNs credits
	// nothing (same lock-in as TokenBucket.Allow).
	for {
		last := r.lastNs.Load()
		if nowNs <= last {
			break
		}
		if r.lastNs.CompareAndSwap(last, nowNs) {
			rate := r.rateKbps.Load()
			r.add(credit(rate, nowNs-last), BurstFor(rate))
			break
		}
	}
	for {
		cur := r.fill.Load()
		if cur < need {
			return 0
		}
		take := min(need+chunk, cur)
		if r.fill.CompareAndSwap(cur, cur-take) {
			return take
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
func (p *ReservePool) Get(id reservation.ID, rateKbps uint32, nowNs int64) *Reserve {
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
