// RSS-style sharded gateway: the multi-core face of packet construction.
//
// Unlike the router (which shards by ResID ‖ src-host read off the wire),
// the gateway shards by ResID alone: the reservation is the unit of
// placement, because all of an EER's state — its record (fields, path
// header handle, σ slot, deterministic token bucket), the Ts uniqueness
// counter — is per-reservation. Hashing the ResID with the same splitmix64
// finalizer pins each reservation wholly to one shard, so shard state is
// disjoint by construction: the per-shard token bucket holds the FULL
// reserved rate (no capacity split, no shared reserve needed), and per-shard
// lastTs counters still yield globally valid timestamps because uniqueness
// is only required per (SrcAS, ResID, Ts) and one reservation never spans
// shards.
//
// Telemetry merges by name: all shards attach to one registry, whose
// counters are lock-free and whose gauges are maintained with deltas, so
// dashboards see gateway-wide totals under the unchanged series names.
// There is nothing to merge across shards: reservations never span them.
package gateway

import (
	"runtime"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/shardpool"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// shardG is one shard's gateway plus its scatter/gather scratch. All of it
// is owned by the Sharded front end: filled by the dispatching goroutine,
// consumed by the shard's pool worker between Dispatch barriers, and never
// aliased out (colibri-vet enforces this).
//
//colibri:shardowned
type shardG struct {
	g *Gateway
	w *Worker
	// reqs/idx/outs are the shard's slice of the current batch: filled by
	// the dispatching goroutine, consumed by the shard's worker, read back
	// after the barrier. Reused across batches.
	reqs  []BuildReq
	idx   []int32
	outs  []BuildRes
	built int
	nowNs int64
	// pad keeps neighbouring shards' hot scratch off one cache line.
	_ [64]byte
}

// Sharded fans BuildBatch out over per-core gateway shards.
type Sharded struct {
	shards []*shardG
	pool   *shardpool.Pool
	mask   uint64
}

// NewSharded builds a sharded gateway for the AS: `shards` flow shards
// (rounded up to a power of two; default workers) fanned out over `workers`
// pool goroutines (default GOMAXPROCS; 1 = inline). Close releases the pool.
func NewSharded(srcAS topology.IA, shards, workers int) *Sharded {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if shards <= 0 {
		shards = workers
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Sharded{
		shards: make([]*shardG, n),
		mask:   uint64(n - 1),
	}
	for i := range s.shards {
		g := New(srcAS)
		s.shards[i] = &shardG{g: g, w: g.NewWorker()}
	}
	s.pool = shardpool.New(workers, s.runShard)
	return s
}

// shardOfRes finalizes a reservation ID with splitmix64 and masks it to a
// shard (same finalizer as the router's flow-key hash, keyed by ResID only —
// the reservation is the gateway's unit of placement).
func shardOfRes(resID uint32, mask uint64) int {
	x := uint64(resID) + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x & mask)
}

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Workers returns the worker-pool size.
func (s *Sharded) Workers() int { return s.pool.Workers() }

// ShardOf returns the shard owning a reservation.
func (s *Sharded) ShardOf(resID uint32) int { return shardOfRes(resID, s.mask) }

// Install registers an EER's state on its owning shard. (Control-plane entry
// points call through the owning shard's gateway in place rather than via a
// helper returning it: shardG state must not alias out of the Sharded.)
func (s *Sharded) Install(res packet.ResInfo, eer packet.EERInfo, path []packet.HopField, auths []cryptoutil.Key) error {
	return s.shards[shardOfRes(res.ResID, s.mask)].g.Install(res, eer, path, auths)
}

// Remove drops an EER's state.
func (s *Sharded) Remove(resID uint32) {
	s.shards[shardOfRes(resID, s.mask)].g.Remove(resID)
}

// Demote marks a flow best-effort-only on its shard.
func (s *Sharded) Demote(resID uint32) bool {
	return s.shards[shardOfRes(resID, s.mask)].g.Demote(resID)
}

// Promote clears a flow's demotion on its shard.
func (s *Sharded) Promote(resID uint32) bool {
	return s.shards[shardOfRes(resID, s.mask)].g.Promote(resID)
}

// Demoted reports whether the flow is currently demoted.
func (s *Sharded) Demoted(resID uint32) bool {
	return s.shards[shardOfRes(resID, s.mask)].g.Demoted(resID)
}

// Expire removes expired reservations on every shard and returns the total
// dropped.
func (s *Sharded) Expire(nowSec uint32) int {
	total := 0
	for _, sh := range s.shards {
		total += sh.g.Expire(nowSec)
	}
	return total
}

// Len returns the number of installed reservations across shards.
func (s *Sharded) Len() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.g.Len()
	}
	return total
}

// EnableTelemetry attaches every shard to the registry. Counters are shared
// by name and gauges are delta-maintained, so the registry reports
// gateway-wide totals under the same series a single gateway publishes.
func (s *Sharded) EnableTelemetry(reg *telemetry.Registry) {
	for _, sh := range s.shards {
		sh.g.EnableTelemetry(reg)
	}
}

// runShard builds one shard's slice of the current batch on a pool worker.
func (s *Sharded) runShard(shard int) {
	sh := s.shards[shard]
	if len(sh.reqs) == 0 {
		sh.built = 0
		return
	}
	sh.built = sh.w.BuildBatch(sh.reqs, sh.outs, sh.nowNs)
}

// BuildBatch partitions reqs by owning shard, builds every shard's slice on
// the worker pool, and scatters the outcomes back into outs (which must be
// at least as long as reqs) at their original positions, returning the
// number of packets built. Per-reservation semantics match a single
// gateway's BuildBatch exactly — a reservation's requests are handled by its
// one shard in batch order — and timestamps stay unique per reservation.
//
//colibri:nomalloc
func (s *Sharded) BuildBatch(reqs []BuildReq, outs []BuildRes, nowNs int64) int {
	if len(outs) < len(reqs) {
		panic("gateway: outs shorter than reqs") //colibri:allow(nomalloc) — cold misuse guard
	}
	for _, sh := range s.shards {
		sh.reqs = sh.reqs[:0]
		sh.idx = sh.idx[:0]
		sh.outs = sh.outs[:0]
		sh.nowNs = nowNs
	}
	for i := range reqs {
		sh := s.shards[shardOfRes(reqs[i].ResID, s.mask)]
		sh.reqs = append(sh.reqs, reqs[i]) //colibri:allow(nomalloc) — amortized scratch growth, steady state reuses capacity
		sh.idx = append(sh.idx, int32(i))  //colibri:allow(nomalloc) — amortized scratch growth, steady state reuses capacity
		if cap(sh.outs) < len(sh.reqs) {
			sh.outs = append(sh.outs[:cap(sh.outs)], BuildRes{}) //colibri:allow(nomalloc) — amortized scratch growth, steady state reuses capacity
		}
		sh.outs = sh.outs[:len(sh.reqs)]
	}
	s.pool.Dispatch(len(s.shards))
	built := 0
	for _, sh := range s.shards {
		for j := range sh.idx {
			outs[sh.idx[j]] = sh.outs[j]
		}
		built += sh.built
	}
	return built
}

// Close releases the worker pool. The Sharded must be idle.
func (s *Sharded) Close() { s.pool.Close() }
