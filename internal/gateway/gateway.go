// Package gateway implements the Colibri gateway (§3.2, §4.6): the per-AS
// component through which all Colibri traffic of local end hosts passes. It
// maps reservation IDs to the state obtained during EER setup (path,
// reservation metadata, hop authenticators), performs deterministic
// per-flow monitoring (token bucket), stamps the high-precision unique
// timestamp, and computes the per-packet hop validation fields
//
//	V_i = MAC_{σ_i}(Ts ‖ PktSize)[0:4]    (Eq. 6)
//
// for every on-path AS before handing the packet to the border router.
//
// The gateway is stateful by design; the paper's Fig. 5 evaluates exactly
// this state's cache behaviour under growing reservation counts.
package gateway

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"colibri/internal/cryptoutil"
	"colibri/internal/flattab"
	"colibri/internal/monitor"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// record is the gateway's one record per EER, inline in the flat table: what
// BuildBatch reads for a packet besides the header of its path and its σs.
type record struct {
	// bucket polices the EER at the rate of deterministic monitoring: the
	// maximum over its valid versions (§4.8), carried across renewals.
	bucket monitor.TokenBucket
	// The current version's ResInfo and EERInfo, but for what the key holds.
	bw, expT         uint32
	srcHost, dstHost uint32
	// path names the current version's interned path header (pathTab), and
	// sig its slot in the σ slab of its hop count: the hop authenticators
	// σ_i in path order. The σs stay raw keys expanded per packet, exactly
	// as the paper's DPDK gateway does with hardware AES key expansion: the
	// per-reservation footprint whose cache behaviour Fig. 5 evaluates stays
	// 16 B per hop. Both are read and written only under the gateway lock.
	path, sig uint32
	ver       uint16
	hops      uint8
	// demoted marks a flow whose renewal ultimately failed: Build refuses
	// it with ErrDemoted so the caller sends best-effort instead of
	// blackholing on a reservation about to die (§3.2's graceful
	// degradation). Install of a fresh version clears it (re-promotion).
	demoted bool
}

// Gateway errors.
var (
	ErrUnknownRes   = errors.New("gateway: unknown reservation")
	ErrExpired      = errors.New("gateway: reservation expired")
	ErrRateExceeded = errors.New("gateway: reservation bandwidth exceeded")
	ErrBufTooSmall  = errors.New("gateway: output buffer too small")
	// ErrDemoted means the flow is demoted to best-effort until its next
	// successful renewal; the caller should send the payload as best-effort
	// traffic rather than drop it.
	ErrDemoted = errors.New("gateway: reservation demoted to best-effort")
)

// Gateway is one AS's Colibri gateway. Install/Remove and Worker.Build are
// safe for concurrent use.
type Gateway struct {
	srcAS topology.IA
	// mu guards recs, every record's bucket and demotion flag included, and
	// the path headers and σs the records name.
	mu    sync.Mutex
	recs  flattab.Table[record]
	paths pathTab
	sigs  [packet.MaxHops]sigSlab
	// lastTs backs the uniqueness of timestamps across all flows. Written
	// only by reserveTs (the build path's timestamp reservation).
	lastTs atomic.Uint64
	// tel holds the optional per-packet-phase instruments; nil (the
	// default) keeps Build free of timing calls.
	tel atomic.Pointer[gwTelemetry]
}

// gwTelemetry bundles the gateway's instruments: wall-clock histograms for
// the three phases of Build (state lookup, token-bucket policing, HVF
// computation + serialization), outcome counters, and the resident-state
// gauge whose cache behaviour Fig. 5 measures.
type gwTelemetry struct {
	lookupNs   *telemetry.Histogram
	bucketNs   *telemetry.Histogram
	hvfNs      *telemetry.Histogram
	pktBytes   *telemetry.Histogram
	built      *telemetry.Counter
	rejected   *telemetry.Counter
	expired    *telemetry.Counter
	demotions  *telemetry.Counter
	promotions *telemetry.Counter
	resident   *telemetry.Gauge
	trace      *telemetry.Tracer
}

// EnableTelemetry attaches the gateway's instruments to the AS-wide
// registry and turns on per-packet-phase timing in Build. Enabling is safe
// at any time (the pointer is swapped atomically).
func (g *Gateway) EnableTelemetry(reg *telemetry.Registry) {
	t := &gwTelemetry{
		lookupNs:   reg.Histogram("gateway.lookup_ns"),
		bucketNs:   reg.Histogram("gateway.tokenbucket_ns"),
		hvfNs:      reg.Histogram("gateway.hvf_ns"),
		pktBytes:   reg.Histogram("gateway.pkt_bytes"),
		built:      reg.Counter("gateway.built"),
		rejected:   reg.Counter("gateway.rejected"),
		expired:    reg.Counter("gateway.expired"),
		demotions:  reg.Counter("gateway.demotions"),
		promotions: reg.Counter("gateway.promotions"),
		resident:   reg.Gauge("gateway.reservations"),
		trace:      reg.Tracer("gateway.lifecycle", 0),
	}
	// The resident gauge is maintained with deltas (not Set), so the shard
	// gateways of a sharded front end can share one registry and the gauge
	// sums to the true total. Enable telemetry at most once per gateway.
	g.mu.Lock()
	t.resident.Add(int64(g.recs.Len()))
	g.mu.Unlock()
	g.tel.Store(t)
}

// New builds a gateway for the AS.
func New(srcAS topology.IA) *Gateway {
	return &Gateway{srcAS: srcAS}
}

// id is the table key of one of the gateway's reservations.
func (g *Gateway) id(resID uint32) reservation.ID {
	return reservation.ID{SrcAS: g.srcAS, Num: resID}
}

// noHVFs stands in for the HVFs of a path header: they are computed per
// packet.
var noHVFs [packet.MaxHops * packet.HVFLen]byte

// Install registers (or replaces, on renewal) the state of an EER. auths
// are the decrypted hop authenticators σ_i in path order; Install keeps
// nothing of its arguments. A path the wire cannot carry (no hop, or more
// than packet.MaxHops) is refused here rather than on every packet. The path
// is interned (one header per distinct path), and a renewal writes its σs
// over the record's slot when the hop count stays: only a new record, a new
// path or a changed hop count may allocate, and only until the stores have
// grown to the gateway's working set.
func (g *Gateway) Install(res packet.ResInfo, eer packet.EERInfo, path []packet.HopField, auths []cryptoutil.Key) error {
	if res.SrcAS != g.srcAS {
		return fmt.Errorf("gateway: reservation of AS %s installed at %s", res.SrcAS, g.srcAS)
	}
	if len(path) != len(auths) {
		return fmt.Errorf("gateway: %d hops but %d authenticators", len(path), len(auths))
	}
	if len(path) == 0 || len(path) > packet.MaxHops {
		return fmt.Errorf("gateway: %w: %d hops", packet.ErrBadPath, len(path))
	}
	hops := len(path)
	rate := uint64(res.BwKbps)

	g.mu.Lock()
	r, fresh := g.recs.Put(g.id(res.ResID))
	// The new path first, so a renewal over the same path keeps its entry.
	ph := g.paths.acquire(path)
	switch {
	case fresh:
		r.sig = g.sigs[hops-1].alloc(hops)
	case int(r.hops) != hops:
		g.release(r)
		r.sig = g.sigs[hops-1].alloc(hops)
	default:
		g.paths.release(r.path)
	}
	sig := g.sigs[hops-1].at(r.sig)
	for i := range auths {
		copy(sig[i*cryptoutil.KeySize:], auths[i][:])
	}
	r.path, r.hops = ph, uint8(hops)
	r.bw, r.ver, r.srcHost, r.dstHost = res.BwKbps, res.Ver, eer.SrcHost, eer.DstHost
	// A fresh version over a demoted flow re-promotes it to its reserved
	// class.
	promoted := r.demoted
	switch old := r.bucket.RateKbps(); {
	case old == 0 && rate > 0:
		// A new EER's bucket (or one whose versions so far reserved
		// nothing) starts full at t = 0.
		r.bucket = *monitor.NewTokenBucket(rate, monitor.BurstBytesFor(rate), 0)
	case rate > old:
		// All versions share one monitored budget: the maximum (§4.8).
		r.bucket.SetRate(rate)
	}
	r.expT, r.demoted = res.ExpT, false
	g.mu.Unlock()
	if t := g.tel.Load(); t != nil {
		if fresh {
			t.resident.Inc()
		}
		if promoted {
			t.promotions.Add(1)
			t.trace.Record(int64(res.ExpT)*1e9, telemetry.EvPromote, g.id(res.ResID).String(), true, "renewed")
		}
	}
	return nil
}

// release lets go of a record's path header and σ slot: before it is deleted,
// or renewed onto a path of another hop count. Under the gateway lock.
func (g *Gateway) release(r *record) {
	g.paths.release(r.path)
	g.sigs[r.hops-1].release(r.sig)
}

// setDemoted moves a flow's demotion flag to demoted and reports whether it
// transitioned (false: unknown, or already there).
func (g *Gateway) setDemoted(resID uint32, demoted bool) bool {
	g.mu.Lock()
	r := g.recs.Get(g.id(resID))
	changed := r != nil && r.demoted != demoted
	if changed {
		r.demoted = demoted
	}
	g.mu.Unlock()
	return changed
}

// Demote marks a flow as best-effort-only: Build returns ErrDemoted for it
// until a fresh version is installed or Promote is called. It reports
// whether the flow transitioned (false: unknown or already demoted).
func (g *Gateway) Demote(resID uint32) bool {
	changed := g.setDemoted(resID, true)
	if changed {
		if t := g.tel.Load(); t != nil {
			t.demotions.Add(1)
			t.trace.Record(0, telemetry.EvDemote, g.id(resID).String(), false, "renewal failed")
		}
	}
	return changed
}

// Promote clears a flow's demotion without reinstalling (e.g. when the old
// version turns out to still be serving). It reports whether the flow
// transitioned.
func (g *Gateway) Promote(resID uint32) bool {
	changed := g.setDemoted(resID, false)
	if changed {
		if t := g.tel.Load(); t != nil {
			t.promotions.Add(1)
			t.trace.Record(0, telemetry.EvPromote, g.id(resID).String(), true, "")
		}
	}
	return changed
}

// HopAuths copies the σs of EER resID's installed version, in path order,
// into dst. It leaves dst as it is when the gateway holds no such EER, or
// holds it over other than len(dst) hops.
func (g *Gateway) HopAuths(resID uint32, dst []cryptoutil.Key) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r := g.recs.Get(g.id(resID)); r != nil && int(r.hops) == len(dst) {
		sig := g.sigs[r.hops-1].at(r.sig)
		for i := range dst {
			copy(dst[i][:], sig[i*cryptoutil.KeySize:])
		}
	}
}

// Remove drops an EER's state (expiry), its token bucket with it.
//
//colibri:allow(testonly) — core's TestGrantViewAfterSweep removes a still-valid EER with it
func (g *Gateway) Remove(resID uint32) {
	id := g.id(resID)
	g.mu.Lock()
	r := g.recs.Get(id)
	present := r != nil
	if present {
		g.release(r)
		g.recs.Delete(id)
	}
	g.mu.Unlock()
	if t := g.tel.Load(); t != nil && present {
		t.resident.Dec()
	}
}

// Expire removes reservations whose current version has expired and returns
// how many were dropped.
func (g *Gateway) Expire(nowSec uint32) int {
	t := g.tel.Load()
	var dropped []uint32 // for the lifecycle trace only
	n := 0
	g.mu.Lock()
	// Backwards, so a delete's swap-last moves a record already visited.
	for i := g.recs.Len() - 1; i >= 0; i-- {
		if id, r := g.recs.At(i); nowSec >= r.expT {
			g.release(r)
			g.recs.Delete(id)
			n++
			if t != nil {
				dropped = append(dropped, id.Num)
			}
		}
	}
	g.mu.Unlock()
	if t != nil && n > 0 {
		t.expired.Add(uint64(n))
		t.resident.Add(-int64(n))
		nowNs := int64(nowSec) * 1e9
		for _, id := range dropped {
			t.trace.Record(nowNs, telemetry.EvEEExpire, g.id(id).String(), true, "")
		}
	}
	return n
}

// Len returns the number of installed reservations.
//
//colibri:allow(testonly) — core's TestGrantViewAfterSweep and workload's TestGatewayPopulationInterop count installed EERs
func (g *Gateway) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recs.Len()
}

// reserveTs hands out n strictly increasing timestamps ≥ nowNs, unique
// across the gateway ("Ts … uniquely identifies the packet for the
// particular source"); the batch owns [base, base+n). In steady state
// (lastTs at or ahead of the clock) this is a single atomic Add per batch;
// the CAS loop only runs when the wall clock overtakes lastTs, and then
// only to push it forward before the Add claims the range.
func (g *Gateway) reserveTs(nowNs int64, n uint64) (base uint64) {
	for {
		last := g.lastTs.Load()
		if last >= uint64(nowNs) {
			return g.lastTs.Add(n) - n + 1
		}
		if g.lastTs.CompareAndSwap(last, uint64(nowNs)-1) {
			return g.lastTs.Add(n) - n + 1
		}
	}
}

// BuildReq describes one packet of a batch: the reservation to send on,
// the payload, and the caller-owned output buffer.
type BuildReq struct {
	ResID   uint32
	Payload []byte
	Out     []byte
}

// BuildRes is the per-packet outcome of BuildBatch: the serialized length
// in Out, or a sentinel error (ErrUnknownRes, ErrExpired, ErrDemoted,
// packet.ErrPayloadLen, ErrBufTooSmall, ErrRateExceeded). Errors are bare
// sentinels — no per-packet allocation.
type BuildRes struct {
	N   int
	Err error
}

// Worker holds per-goroutine scratch state for packet construction; create
// one per worker goroutine with NewWorker.
type Worker struct {
	g      *Gateway
	hvfIn  [packet.HVFInputLen]byte
	macOut [cryptoutil.MACSize]byte
	ks     cryptoutil.AESSchedule

	// Batch scratch, grown to the largest batch seen and then reused. recs
	// are the looked-up records, valid only under the gateway lock; sigmas
	// carries the σs of the packets to build past it, back to back in
	// request order.
	recs   []*record
	sigmas []byte
	// One-element batch backing Build.
	req1 [1]BuildReq
	res1 [1]BuildRes
}

// NewWorker creates a packet-building worker.
func (g *Gateway) NewWorker() *Worker {
	return &Worker{g: g}
}

// grow sizes the batch scratch for n requests without allocating on the
// steady state.
func (w *Worker) grow(n int) {
	if cap(w.recs) >= n {
		w.recs = w.recs[:n]
		return
	}
	w.recs = make([]*record, n)
}

// Build assembles a complete Colibri data packet for the reservation into
// out: deterministic monitoring, timestamping, HVF computation for all
// on-path ASes, serialization. It returns the packet length. Build is a
// batch of one — BuildBatch is the primary pipeline.
func (w *Worker) Build(resID uint32, payload []byte, out []byte, nowNs int64) (int, error) {
	w.req1[0] = BuildReq{ResID: resID, Payload: payload, Out: out}
	w.BuildBatch(w.req1[:], w.res1[:], nowNs)
	return w.res1[0].N, w.res1[0].Err
}

// BuildBatch assembles one packet per request at a common instant nowNs,
// writing per-packet outcomes into outs (which must be at least as long as
// reqs) and returning the number of packets built. The per-packet fixed
// costs are paid once per batch: one lock acquisition for the state lookups
// and the token buckets, one atomic timestamp reservation for the whole
// batch, and one telemetry sample per phase with counters bumped by Add(n).
// Unknown, expired, demoted, oversized and too-small requests consume
// nothing; policing consumes only for conforming packets.
//
//colibri:nomalloc
func (w *Worker) BuildBatch(reqs []BuildReq, outs []BuildRes, nowNs int64) int {
	g := w.g
	n := len(reqs)
	if n == 0 {
		return 0
	}
	if len(outs) < n {
		panic("gateway: outs shorter than reqs") //colibri:allow(nomalloc) — cold misuse guard
	}
	// Phase timing (lookup → token bucket → HVF+serialize) is enabled by
	// EnableTelemetry; with tel == nil, BuildBatch performs no clock reads.
	tel := g.tel.Load()
	var phaseStart int64
	if tel != nil {
		phaseStart = monoNow()
	}
	w.grow(n) //colibri:allow(nomalloc) — amortized scratch growth, reused across batches
	nowSec := uint32(nowNs / 1e9)

	// Phases 1 and 2 under one lock: the records' lookups, then their buckets.
	g.mu.Lock()
	for i := 0; i < n; i++ {
		outs[i], w.recs[i] = BuildRes{}, nil
		r := g.recs.Get(g.id(reqs[i].ResID))
		switch {
		case r == nil:
			outs[i].Err = ErrUnknownRes
		case nowSec >= r.expT:
			outs[i].Err = ErrExpired
		case r.demoted:
			outs[i].Err = ErrDemoted
		case len(reqs[i].Payload) > packet.MaxPayload:
			outs[i].Err = packet.ErrPayloadLen
		case len(reqs[i].Out) < packet.DataLen(int(r.hops), len(reqs[i].Payload)):
			outs[i].Err = ErrBufTooSmall
		default:
			w.recs[i] = r
		}
	}
	if tel != nil {
		now := monoNow()
		tel.lookupNs.Observe(now - phaseStart)
		phaseStart = now
	}

	// Deterministic monitoring over the total packet sizes, all versions
	// sharing the reservation's budget (§4.8). A renewal rewrites a record's
	// fields and σs in place and may free its path header, so each
	// conforming packet's header, with its fields written in, goes to its
	// output buffer and its σs to the worker's scratch before the lock goes.
	toBuild := uint64(0)
	w.sigmas = w.sigmas[:0]
	for i := 0; i < n; i++ {
		r := w.recs[i]
		if r == nil {
			continue
		}
		if !r.bucket.Allow(nowNs, uint32(packet.DataLen(int(r.hops), len(reqs[i].Payload)))) {
			outs[i].Err = ErrRateExceeded
			continue
		}
		copy(reqs[i].Out, g.paths.ents[r.path].hdr)
		packet.SetReservation(reqs[i].Out,
			&packet.ResInfo{SrcAS: g.srcAS, ResID: reqs[i].ResID, BwKbps: r.bw, ExpT: r.expT, Ver: r.ver},
			&packet.EERInfo{SrcHost: r.srcHost, DstHost: r.dstHost})
		// The scratch grows to the largest batch seen, then is reused.
		w.sigmas = append(w.sigmas, g.sigs[r.hops-1].at(r.sig)...)
		toBuild++
	}
	g.mu.Unlock()
	if tel != nil {
		now := monoNow()
		tel.bucketNs.Observe(now - phaseStart)
		phaseStart = now
	}

	// Phase 3: timestamps, HVFs, payloads, for the packets still without an
	// error, over the copied headers and σs. One atomic Add claims the whole
	// batch's unique timestamp range.
	built := 0
	if toBuild > 0 {
		ts := g.reserveTs(nowNs, toBuild)
		sigmas := w.sigmas
		for i := 0; i < n; i++ {
			if outs[i].Err != nil {
				continue
			}
			outs[i].N = w.stamp(reqs[i].Out, reqs[i].Payload, sigmas, ts)
			sigmas = sigmas[packet.PathLenOf(reqs[i].Out)*cryptoutil.KeySize:]
			ts++
			built++
			if tel != nil {
				tel.pktBytes.Observe(int64(outs[i].N))
			}
		}
	}
	if tel != nil {
		tel.hvfNs.Observe(monoNow() - phaseStart)
		if built > 0 {
			tel.built.Add(uint64(built))
		}
		if rej := n - built; rej > 0 {
			tel.rejected.Add(uint64(rej))
		}
	}
	return built
}

// stamp completes the packet whose header out holds: the payload behind the
// header, its length and Ts set, and one HVF per hop computed in place from
// the hops' σs at the front of sigmas. It returns the packet length.
//
//colibri:nomalloc
func (w *Worker) stamp(out, payload, sigmas []byte, ts uint64) int {
	hops := packet.PathLenOf(out)
	hdr := packet.DataLen(hops, 0)
	n := hdr + copy(out[hdr:], payload)
	packet.SetDataFields(out, len(payload), ts)
	packet.HVFInput(&w.hvfIn, ts, uint32(n))
	hvfs := out[packet.HVFOffset(hops):hdr]
	for h := 0; h < hops; h++ {
		cryptoutil.SigmaMAC(&w.ks, (*cryptoutil.Key)(sigmas[h*cryptoutil.KeySize:]), &w.macOut, &w.hvfIn)
		copy(hvfs[h*packet.HVFLen:], w.macOut[:packet.HVFLen])
	}
	return n
}
