// RSS-style sharded border router: the multi-core face of the data plane.
//
// A Sharded front end hashes every packet's flow key (ResID ‖ src-host,
// peeked from fixed wire offsets without decoding) with a splitmix64
// finalizer to one of a power-of-two set of shards. Each shard owns a
// complete core-local protection stack — its own Router with a private
// replay filter (split per-shard via replay.Config.Split), OFD sketch
// (ofd.Config.Split), blocklist and deterministic flow monitor (the watch
// table), plus a dedicated Worker — so the per-packet path touches no
// mutable state shared between shards. The only cross-shard words are (a)
// the flow-level shared token reserves (one lock-free Reserve per escalated
// reservation, touched only on local token exhaustion; see
// monitor/reserve.go) and (b) the sharded telemetry counters, which are
// lock-free by construction.
//
// Pinning flows to shards is what makes the split exact rather than
// approximate: a flow's replays, duplicates, and usage all land on the one
// shard that holds that flow's state, so per-flow decisions are identical to
// a single-core router's, and per-flow packet order is preserved because one
// shard processes one flow's packets in arrival order. Cross-shard facts —
// blocklist entries earned on one shard, OFD escalations of multi-host
// reservations — propagate at explicit Merge() calls, exactly like the
// periodic RCU-ish reconciliation of a real multi-queue NIC pipeline.
package router

import (
	"runtime"

	"colibri/internal/monitor"
	"colibri/internal/ofd"
	"colibri/internal/packet"
	"colibri/internal/replay"
	"colibri/internal/reservation"
	"colibri/internal/shardpool"
	"colibri/internal/topology"
)

// ShardedConfig assembles a sharded router.
type ShardedConfig struct {
	// Router is the per-shard template (IA, Secret, freshness, policing
	// stance, telemetry registry). Its Replay, OFD, and DetMonitor fields
	// must be nil: per-shard ones are built from the split configs below. A non-nil Blocklist becomes the global view and seeds every
	// shard.
	Router Config
	// Replay, when non-nil, gives every shard a private suppressor sized by
	// Replay.Split(shards).
	Replay *replay.Config
	// OFD, when non-nil, gives every shard a private detector sized by
	// OFD.Split(shards).
	OFD *ofd.Config
	// Shards is the number of flow shards, rounded up to a power of two
	// (default: Workers rounded up). Fixing Shards explicitly makes every
	// per-flow decision independent of the worker count — the differential
	// tests rely on this.
	Shards int
	// Workers is the number of pool goroutines fanning batches out
	// (default GOMAXPROCS; 1 = inline, no goroutines).
	Workers int
	// ReserveChunkBytes is the over-claim granularity of escalated flows'
	// shard buckets (0 = exact claims, decision-identical to one full-rate
	// bucket; ~a few MTUs amortizes shared-word traffic).
	ReserveChunkBytes float64
}

// shardR is one shard's core-local state plus its scatter/gather scratch,
// owned by the Sharded front end: handed between the dispatching goroutine
// and one pool worker by the Dispatch barrier, never aliased out
// (colibri-vet enforces this).
//
//colibri:shardowned
type shardR struct {
	r *Router
	w *Worker
	// pkts/idx/verdicts are the shard's slice of the current batch: filled
	// by the dispatching goroutine, consumed by the shard's worker, read
	// back after the barrier. Reused across batches.
	pkts     [][]byte
	idx      []int32
	verdicts []BatchVerdict
	passed   int
	nowNs    int64
	// pad keeps neighbouring shards' hot scratch off one cache line.
	_ [64]byte
}

// Sharded fans ProcessBatch out over per-core router shards.
type Sharded struct {
	shards []*shardR
	pool   *shardpool.Pool
	mask   uint64

	// global is the merged blocklist view (also the seed source for shards).
	global *monitor.Blocklist
	// reserves holds the shared full-rate token reserves of escalated flows.
	reserves *monitor.ReservePool

	hasRegistry bool
}

// nextPow2 rounds n up to a power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardOf finalizes the flow key with splitmix64 and masks it to a shard.
// The finalizer's avalanche keeps sequential ResIDs from mapping to
// sequential shards.
func shardOf(key, mask uint64) int {
	x := key + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x & mask)
}

// NewSharded builds the sharded router. Close releases its worker pool.
func NewSharded(cfg ShardedConfig) *Sharded {
	if cfg.Router.Replay != nil || cfg.Router.OFD != nil || cfg.Router.DetMonitor != nil {
		panic("router: ShardedConfig.Router must not carry Replay/OFD/DetMonitor; use the split configs")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = cfg.Workers
	}
	cfg.Shards = nextPow2(cfg.Shards)

	global := cfg.Router.Blocklist
	if global == nil {
		global = monitor.NewBlocklist()
	}
	s := &Sharded{
		shards:      make([]*shardR, cfg.Shards),
		mask:        uint64(cfg.Shards - 1),
		global:      global,
		reserves:    monitor.NewReservePool(),
		hasRegistry: cfg.Router.Telemetry != nil,
	}
	for i := range s.shards {
		rcfg := cfg.Router
		rcfg.Blocklist = monitor.NewBlocklist()
		rcfg.Blocklist.MergeFrom(global)
		rcfg.DetMonitor = monitor.NewShardFlowMonitor(s.reserves, cfg.ReserveChunkBytes)
		if cfg.Replay != nil {
			split := cfg.Replay.Split(cfg.Shards)
			rcfg.Replay = &split
		}
		if cfg.OFD != nil {
			rcfg.OFD = ofd.New(cfg.OFD.Split(cfg.Shards))
		}
		r := New(rcfg)
		s.shards[i] = &shardR{r: r, w: r.NewWorker()}
	}
	s.pool = shardpool.New(cfg.Workers, s.runShard)
	return s
}

// Shards returns the number of flow shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Workers returns the worker-pool size.
func (s *Sharded) Workers() int { return s.pool.Workers() }

// ShardOf returns the shard a serialized packet's flow is pinned to
// (shard 0 for runts that have no readable flow key).
func (s *Sharded) ShardOf(buf []byte) int {
	key, ok := packet.PeekFlowKey(buf)
	if !ok {
		return 0
	}
	return shardOf(key, s.mask)
}

// runShard processes one shard's slice of the current batch on a pool
// worker. All state it touches is owned by that shard (plus lock-free
// telemetry), per the shardpool ownership contract.
func (s *Sharded) runShard(shard int) {
	sh := s.shards[shard]
	if len(sh.pkts) == 0 {
		sh.passed = 0
		return
	}
	sh.passed = sh.w.ProcessBatch(sh.pkts, sh.verdicts, sh.nowNs)
}

// ProcessBatch partitions pkts by flow key, validates every shard's slice on
// the worker pool, and scatters the per-packet outcomes back into verdicts
// (which must be at least as long as pkts) at their original positions. It
// returns the number of packets that passed validation. Per-flow semantics
// match a single-core Worker.ProcessBatch call exactly: a flow's packets are
// processed by its one shard in batch order.
//
//colibri:nomalloc
func (s *Sharded) ProcessBatch(pkts [][]byte, verdicts []BatchVerdict, nowNs int64) int {
	if len(verdicts) < len(pkts) {
		panic("router: verdicts shorter than pkts") //colibri:allow(nomalloc) — cold misuse guard
	}
	for _, sh := range s.shards {
		sh.pkts = sh.pkts[:0]
		sh.idx = sh.idx[:0]
		sh.verdicts = sh.verdicts[:0]
		sh.nowNs = nowNs
	}
	for i, buf := range pkts {
		shard := 0
		if key, ok := packet.PeekFlowKey(buf); ok {
			shard = shardOf(key, s.mask)
		}
		sh := s.shards[shard]
		sh.pkts = append(sh.pkts, buf)    //colibri:allow(nomalloc) — amortized scratch growth, steady state reuses capacity
		sh.idx = append(sh.idx, int32(i)) //colibri:allow(nomalloc) — amortized scratch growth, steady state reuses capacity
		if cap(sh.verdicts) < len(sh.pkts) {
			sh.verdicts = append(sh.verdicts[:cap(sh.verdicts)], BatchVerdict{}) //colibri:allow(nomalloc) — amortized scratch growth, steady state reuses capacity
		}
		sh.verdicts = sh.verdicts[:len(sh.pkts)]
	}
	s.pool.Dispatch(len(s.shards))
	passed := 0
	for _, sh := range s.shards {
		for j := range sh.idx {
			verdicts[sh.idx[j]] = sh.verdicts[j]
		}
		passed += sh.passed
	}
	return passed
}

// Watch places a reservation under deterministic monitoring on every shard
// (a multi-host reservation's flows may be pinned to several shards; the
// shared reserve keeps the aggregate at the exact reserved rate). On a shard
// its packets never reach, the seed has no lifetime and stays until Unwatch.
func (s *Sharded) Watch(id reservation.ID) {
	for _, sh := range s.shards {
		sh.r.Watch(id)
	}
}

// Unwatch clears a reservation from deterministic monitoring everywhere,
// which releases its shared reserve.
func (s *Sharded) Unwatch(id reservation.ID) {
	for _, sh := range s.shards {
		sh.r.Unwatch(id)
	}
}

// Block blocks a source AS on the global view and every shard immediately
// (operator action; shard-earned blocks propagate at Merge instead).
func (s *Sharded) Block(ia topology.IA, expiry uint32) {
	s.global.Block(ia, expiry)
	for _, sh := range s.shards {
		sh.r.Blocklist().Block(ia, expiry)
	}
}

// Blocklist returns the merged global blocklist view (complete as of the
// last Merge).
func (s *Sharded) Blocklist() *monitor.Blocklist { return s.global }

// Merge reconciles cross-shard state off the packet path: shard-earned
// blocklist entries are promoted to the global view and pushed back to all
// shards, and freshly flagged OFD suspects are drained, escalated to
// deterministic monitoring on every shard, and returned. Call it
// periodically (it is cheap when nothing changed) or whenever a fresh
// global view is needed. Merge never stalls the packet path: shards keep
// processing against their local state while it runs.
func (s *Sharded) Merge() []reservation.ID {
	// Blocklists: union up, then push down.
	for _, sh := range s.shards {
		s.global.MergeFrom(sh.r.Blocklist())
	}
	for _, sh := range s.shards {
		sh.r.Blocklist().MergeFrom(s.global)
	}

	// OFD promotion: a flow its shard's sketch flagged goes under deterministic
	// monitoring on all shards, for the lifetime that shard gave it.
	var flagged []reservation.ID
	for _, sh := range s.shards {
		for id, expT := range sh.r.detMon.Drain() {
			for _, sibling := range s.shards {
				sibling.r.detMon.Watch(id, expT)
			}
			flagged = append(flagged, id)
		}
	}
	return flagged
}

// Drops returns the per-reason drop counts across all shards.
func (s *Sharded) Drops() map[string]uint64 {
	if s.hasRegistry {
		// Shards share one registry, so the named counters are already
		// global; any shard's view is the total.
		return s.shards[0].r.Drops()
	}
	out := make(map[string]uint64)
	for _, sh := range s.shards {
		for reason, v := range sh.r.Drops() {
			out[reason] += v
		}
	}
	return out
}

// DropTotal returns the total dropped packets across shards.
func (s *Sharded) DropTotal() uint64 {
	if s.hasRegistry {
		return s.shards[0].r.DropTotal()
	}
	var sum uint64
	for _, sh := range s.shards {
		sum += sh.r.DropTotal()
	}
	return sum
}

// Close releases the worker pool. The Sharded must be idle.
func (s *Sharded) Close() { s.pool.Close() }
