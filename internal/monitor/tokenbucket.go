// Package monitor implements Colibri's deterministic monitoring and
// policing (§4.8): per-flow token buckets for exact rate enforcement at the
// source AS's gateway (and for flows escalated by the probabilistic
// detector), and the blocklist of offending source ASes kept by border
// routers.
package monitor

import (
	"sync"
	"sync/atomic"

	"colibri/internal/flattab"
	"colibri/internal/reservation"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// TokenBucket enforces a byte rate with a burst allowance. As in the paper,
// it keeps only a timestamp and a counter per flow. It is not safe for
// concurrent use: its holder (the gateway's record, FlowMonitor's watch
// table) locks around it.
type TokenBucket struct {
	// rate is the refill rate in bytes per nanosecond.
	rate float64
	// burst is the bucket capacity in bytes.
	burst float64
	// tokens is the current fill level in bytes.
	tokens float64
	// lastNs is the time of the last refill.
	lastNs int64
	// rateKbps is the nominal reservation rate, kept for cheap change
	// detection (EER renewals) without re-deriving bytes/ns.
	rateKbps uint64
}

// DefaultBurstSeconds sizes a flow's burst allowance relative to its rate:
// the bucket holds this many seconds worth of traffic.
const DefaultBurstSeconds = 0.1

// NewTokenBucket builds a bucket enforcing rateKbps with the given burst (in
// bytes). The bucket starts full.
func NewTokenBucket(rateKbps uint64, burstBytes float64, nowNs int64) *TokenBucket {
	rate := float64(rateKbps) * 1000 / 8 / 1e9 // kbps → bytes per ns
	return &TokenBucket{rate: rate, burst: burstBytes, tokens: burstBytes, lastNs: nowNs, rateKbps: rateKbps}
}

// BurstBytesFor returns the default burst size for a rate.
func BurstBytesFor(rateKbps uint64) float64 {
	b := float64(rateKbps) * 1000 / 8 * DefaultBurstSeconds
	if b < 1500 {
		b = 1500 // always allow at least one full-size packet
	}
	return b
}

// Allow refills the bucket to time nowNs and consumes sizeBytes if
// available, reporting whether the packet conforms. Non-conforming packets
// consume nothing ("packets are simply dropped").
//
// Timestamps need not be monotone: a nowNs at or before the last refill
// (clock regression, reordered batches) refills nothing and must not move
// lastNs backwards — a backwards lastNs would let the next in-order packet
// double-refill the interval.
func (tb *TokenBucket) Allow(nowNs int64, sizeBytes uint32) bool {
	if nowNs > tb.lastNs {
		tb.tokens += float64(nowNs-tb.lastNs) * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.lastNs = nowNs
	}
	need := float64(sizeBytes)
	if tb.tokens < need {
		return false
	}
	tb.tokens -= need
	return true
}

// SetRate updates the enforced rate (e.g., after an EER renewal changed the
// reservation bandwidth) and resizes the burst proportionally.
func (tb *TokenBucket) SetRate(rateKbps uint64) {
	tb.rateKbps = rateKbps
	tb.rate = float64(rateKbps) * 1000 / 8 / 1e9
	tb.burst = BurstBytesFor(rateKbps)
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
}

// RateKbps returns the enforced rate.
func (tb *TokenBucket) RateKbps() uint64 { return tb.rateKbps }

// FlowMonitor is a border router's watch table (§4.8): one token bucket per
// reservation ID under deterministic monitoring, all versions of an EER
// sharing the bucket. A flow is watched exactly while it has an entry. The
// entries live inline in a flattab.Table, so the table holds no Go map and no
// heap object per flow. It is safe for concurrent use.
type FlowMonitor struct {
	mu    sync.Mutex
	flows flattab.Table[flow]
	// n mirrors flows.Len(), written under mu: a router's table is empty
	// almost always, and Len then answers once per packet without the lock.
	n atomic.Int64
	// fresh counts the escalations Drain has not reported yet; sweptSec is
	// the last second whose expired entries Police dropped.
	fresh    int
	sweptSec uint32
	// gauge, when set, tracks flows.Len(). Maintained with deltas (not Set) so
	// that several shard monitors sharing one gauge sum to the true flow
	// count across the sharded data plane. made and dropped count entries.
	gauge         *telemetry.Gauge
	made, dropped *telemetry.Counter
	// pool, when non-nil, puts the monitor in shard mode: buckets are
	// created as local claim caches over the pool's shared full-rate
	// reserves (see reserve.go), over-claiming chunk bytes at a time.
	pool  *ReservePool
	chunk float64
}

// flow is one entry; its bucket is unstarted (rateKbps 0) until the flow's first packet.
type flow struct {
	TokenBucket
	// reserve, in shard mode, is the flow's shared full-rate reserve: the
	// bucket never refills itself and acts as a local claim cache in front
	// of it (see reserve.go for why the rate is NOT split /N).
	reserve *Reserve
	// expT is the second the entry leaves the table (0 = not set: an
	// operator's seed before its first packet, or an Ensure'd entry).
	expT uint32
	// fresh marks an escalation Drain has not reported yet.
	fresh bool
}

// NewFlowMonitor builds an empty monitor.
func NewFlowMonitor() *FlowMonitor {
	return &FlowMonitor{}
}

// NewShardFlowMonitor builds the per-shard flow monitor of a sharded data
// plane: buckets hold no tokens of their own and claim from the flow's
// shared reserve in pool (which enforces the full reserved rate), in chunks
// of chunkBytes beyond the immediate deficit (0 = exact claims, byte-for-
// byte equivalent to a single full-rate bucket; larger chunks amortize the
// shared-word traffic at the cost of slightly earlier token commitment).
func NewShardFlowMonitor(pool *ReservePool, chunkBytes float64) *FlowMonitor {
	return &FlowMonitor{pool: pool, chunk: chunkBytes}
}

// SetTelemetry attaches a gauge tracking the number of flows this monitor
// contributes (the current count is added immediately) and, when non-nil,
// counters of entries made and dropped. Attach each monitor at most once.
func (m *FlowMonitor) SetTelemetry(flows *telemetry.Gauge, made, dropped *telemetry.Counter) {
	m.mu.Lock()
	m.gauge, m.made, m.dropped = flows, made, dropped
	if flows != nil {
		flows.Add(int64(m.flows.Len()))
	}
	m.mu.Unlock()
}

// entry returns the flow's entry with its bucket at rateKbps, making it on
// first sight. The caller holds mu.
func (m *FlowMonitor) entry(id reservation.ID, rateKbps uint64, nowNs int64) *flow {
	f := m.flows.Get(id)
	if f == nil {
		f = m.add(id, 0)
	}
	m.start(id, f, rateKbps, nowNs)
	return f
}

// start gives f its bucket on the flow's first packet and follows a rate
// change (an EER renewal) after. The caller holds mu.
func (m *FlowMonitor) start(id reservation.ID, f *flow, rateKbps uint64, nowNs int64) {
	switch {
	case f.rateKbps == rateKbps:
	case f.reserve != nil: // started, shard mode: the reserve holds the rate
		f.rateKbps = rateKbps
		f.reserve.SetRate(rateKbps)
	case f.rateKbps != 0: // started
		f.SetRate(rateKbps)
	case m.pool != nil: // shard mode: an empty local cache in front of the shared reserve
		f.TokenBucket = TokenBucket{rateKbps: rateKbps}
		f.reserve = m.pool.Get(id, rateKbps, nowNs)
	default:
		f.TokenBucket = *NewTokenBucket(rateKbps, BurstBytesFor(rateKbps), nowNs)
	}
}

// allow polices one packet of f: against its own bucket, or in shard mode
// against its claim cache, refilled from the shared reserve on exhaustion.
// The caller holds mu.
func (m *FlowMonitor) allow(f *flow, nowNs int64, sizeBytes uint32) bool {
	if f.reserve == nil {
		return f.Allow(nowNs, sizeBytes)
	}
	need := float64(sizeBytes)
	if f.tokens < need {
		f.tokens += f.reserve.Claim(need-f.tokens, m.chunk, nowNs)
	}
	if f.tokens < need {
		return false
	}
	f.tokens -= need
	return true
}

// add makes the entry of id, to leave at expT. The caller holds mu.
func (m *FlowMonitor) add(id reservation.ID, expT uint32) *flow {
	f, _ := m.flows.Put(id)
	f.expT = expT
	m.count(1, m.made)
	return f
}

// drop removes id's entry f and its hold on the pooled reserve. The caller holds mu.
func (m *FlowMonitor) drop(id reservation.ID, f *flow) {
	if f.reserve != nil {
		m.pool.Release(id)
	}
	if f.fresh {
		m.fresh--
	}
	m.flows.Delete(id)
	m.count(-1, m.dropped)
}

// count moves the table size by delta and bumps the counter of the event.
func (m *FlowMonitor) count(delta int64, event *telemetry.Counter) {
	m.n.Add(delta)
	if m.gauge != nil {
		m.gauge.Add(delta)
	}
	if event != nil {
		event.Inc()
	}
}

// AllowBatch checks a batch of same-instant packets under a single lock
// acquisition: packet i belongs to ids[i] at rates[i] kbps and has
// sizes[i] bytes; the verdicts land in allowed[i]. Entries with
// sizes[i] == 0 are holes (no packet) and are skipped with
// allowed[i] = false. All slices must have the same length. A flow's first
// packet makes its entry.
//
// No production path calls AllowBatch or Ensure any more (the gateway keeps
// its buckets in its own records); the benchmark's monitor.allow_ns probe
// does.
//
//colibri:nomalloc
func (m *FlowMonitor) AllowBatch(ids []reservation.ID, rates []uint64, sizes []uint32, nowNs int64, allowed []bool) {
	m.mu.Lock()
	for i := range ids {
		f := m.flows.Get(ids[i])
		if sizes[i] != 0 && (f == nil || f.rateKbps != rates[i]) {
			f = m.entry(ids[i], rates[i], nowNs) // off the loop's fast path: a call here costs the lookups their overlap
		}
		allowed[i] = sizes[i] != 0 && m.allow(f, nowNs, sizes[i])
	}
	m.mu.Unlock()
}

// Ensure makes a flow's entry with its bucket at rateKbps, started at nowNs.
func (m *FlowMonitor) Ensure(id reservation.ID, rateKbps uint64, nowNs int64) {
	m.mu.Lock()
	m.entry(id, rateKbps, nowNs)
	m.mu.Unlock()
}

// Forget drops the entry of an expired reservation or a cleared false
// positive; the shared reserve of shard mode goes with its last holder.
//
//colibri:allow(testonly) — router's Unwatch test hook (TestShardedWatchUnwatch, the watch-table tests) clears a watched flow with it
func (m *FlowMonitor) Forget(id reservation.ID) {
	m.mu.Lock()
	if f := m.flows.Get(id); f != nil {
		m.drop(id, f)
	}
	m.mu.Unlock()
}

// Len returns the number of tracked flows.
func (m *FlowMonitor) Len() int { return int(m.n.Load()) }

// Watch places a flow under deterministic monitoring until expT without a
// packet in hand (an operator's seed, a sibling shard's flag); its first
// packet starts the bucket and, where expT is 0, sets the lifetime.
func (m *FlowMonitor) Watch(id reservation.ID, expT uint32) {
	m.mu.Lock()
	if m.flows.Get(id) == nil {
		m.add(id, expT)
	}
	m.mu.Unlock()
}

// Escalate places the flow of a packet the probabilistic detector flagged
// under watch until expT, the expiry of the packet's reservation version, and
// polices that packet. Only a growth of the table allocates.
func (m *FlowMonitor) Escalate(id reservation.ID, rateKbps uint64, sizeBytes, expT uint32, nowNs int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.entry(id, rateKbps, nowNs)
	if f.expT == 0 {
		f.expT, f.fresh = expT, true
		m.fresh++
	}
	return m.allow(f, nowNs, sizeBytes)
}

// Police checks a packet against the watch table: watched reports whether
// the flow has an entry, ok whether the packet conforms (true when unwatched).
// Only a non-conforming packet extends an entry, to that packet's expT: a
// cleared false positive leaves within one EER lifetime, a true overuser
// stays. The first packet of each second drops the expired entries, so the
// table holds at most the flows flagged within a lifetime, with no caller duty.
func (m *FlowMonitor) Police(id reservation.ID, rateKbps uint64, sizeBytes, expT uint32, nowNs int64) (watched, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sec := uint32(nowNs / 1e9); sec > m.sweptSec {
		m.sweptSec = sec
		// Backwards, so a drop's swap-last moves an entry already visited.
		for i := m.flows.Len() - 1; i >= 0; i-- {
			if fid, f := m.flows.At(i); f.expT != 0 && sec >= f.expT {
				m.drop(fid, f)
			}
		}
	}
	f := m.flows.Get(id)
	if f == nil {
		return false, true
	}
	m.start(id, f, rateKbps, nowNs)
	ok = m.allow(f, nowNs, sizeBytes)
	if f.expT == 0 || !ok && expT > f.expT {
		f.expT = expT
	}
	return true, ok
}

// Drain returns the flows Escalate put under watch since the last call, each
// with the second its entry leaves (a sharded front end places them on the
// sibling shards too).
//
//colibri:allow(testonly) — router's Sharded.Merge test hook (TestShardedDifferential, TestShardedMergeRace) drains each shard's flagged flows with it
func (m *FlowMonitor) Drain() map[reservation.ID]uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fresh == 0 {
		return nil
	}
	out := make(map[reservation.ID]uint32, m.fresh)
	for i := 0; i < m.flows.Len(); i++ {
		if id, f := m.flows.At(i); f.fresh {
			f.fresh, out[id] = false, f.expT
		}
	}
	m.fresh = 0
	return out
}

// Blocklist is the set of source ASes whose reservations are blocked after
// confirmed overuse (§4.8: "as this blocklist is very short … it can be
// implemented as a simple hash set"). Entries can carry an expiry so that
// punishment is finite. Safe for concurrent use.
type Blocklist struct {
	mu      sync.RWMutex
	blocked map[topology.IA]uint32 // IA → expiry (0 = permanent)
	// n mirrors len(blocked), written under mu: the list is empty almost
	// always, and Blocked (once per packet per hop) then answers from this
	// one load without taking the lock.
	n atomic.Int64
}

// NewBlocklist builds an empty blocklist.
func NewBlocklist() *Blocklist {
	return &Blocklist{blocked: make(map[topology.IA]uint32)}
}

// Block adds a source AS until expiry (0 = permanent).
func (b *Blocklist) Block(ia topology.IA, expiry uint32) {
	b.mu.Lock()
	b.blocked[ia] = expiry
	b.n.Store(int64(len(b.blocked)))
	b.mu.Unlock()
}

// Unblock removes a source AS.
func (b *Blocklist) Unblock(ia topology.IA) {
	b.mu.Lock()
	delete(b.blocked, ia)
	b.n.Store(int64(len(b.blocked)))
	b.mu.Unlock()
}

// Blocked reports whether the AS is blocked at time now.
func (b *Blocklist) Blocked(ia topology.IA, now uint32) bool {
	if b.n.Load() == 0 {
		return false
	}
	b.mu.RLock()
	exp, ok := b.blocked[ia]
	b.mu.RUnlock()
	if !ok {
		return false
	}
	if exp != 0 && now >= exp {
		b.Unblock(ia)
		return false
	}
	return true
}

// MergeFrom unions src's entries into b, keeping the stricter punishment on
// conflict (permanent beats timed; later expiry beats earlier). It snapshots
// src before locking b, so concurrent MergeFrom calls in opposite directions
// cannot deadlock.
func (b *Blocklist) MergeFrom(src *Blocklist) {
	if src == nil || src == b {
		return
	}
	type entry struct {
		ia  topology.IA
		exp uint32
	}
	var snap []entry
	src.mu.RLock()
	for ia, exp := range src.blocked {
		snap = append(snap, entry{ia, exp})
	}
	src.mu.RUnlock()
	if len(snap) == 0 {
		return
	}
	b.mu.Lock()
	for _, e := range snap {
		cur, ok := b.blocked[e.ia]
		switch {
		case !ok:
			b.blocked[e.ia] = e.exp
		case cur == 0 || e.exp == 0:
			b.blocked[e.ia] = 0
		case e.exp > cur:
			b.blocked[e.ia] = e.exp
		}
	}
	b.n.Store(int64(len(b.blocked)))
	b.mu.Unlock()
}
