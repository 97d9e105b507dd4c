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
	"colibri/internal/monitor"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// Entry is the per-EER state installed after setup or renewal. The hop
// authenticators are stored as raw keys and expanded per packet, exactly
// as the paper's DPDK gateway does with hardware AES key expansion: the
// per-reservation footprint whose cache behaviour Fig. 5 evaluates stays
// 16 B per hop.
type Entry struct {
	Res  packet.ResInfo
	EER  packet.EERInfo
	Path []packet.HopField
	// auths are the hop authenticators σ_i in path order.
	auths []cryptoutil.Key
	// MonitorKbps is the rate enforced by deterministic monitoring: the
	// maximum over the EER's valid versions (§4.8).
	MonitorKbps uint64
	// demoted marks a flow whose renewal ultimately failed: Build refuses
	// it with ErrDemoted so the caller sends best-effort instead of
	// blackholing on a reservation about to die (§3.2's graceful
	// degradation). Install of a fresh version clears it (re-promotion).
	// Atomic because workers read it outside the gateway lock.
	demoted atomic.Bool
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
	mu    sync.RWMutex
	byID  map[uint32]*Entry
	mon   *monitor.FlowMonitor
	// lastTs backs the uniqueness of timestamps across all flows. Written
	// only by reserveTs (the build path's timestamp reservation).
	lastTs atomic.Uint64 //colibri:singlewriter
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
// at any time (the pointer is swapped atomically); the per-flow monitor's
// occupancy gauge is wired as well.
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
	g.mu.RLock()
	t.resident.Add(int64(len(g.byID)))
	g.mu.RUnlock()
	g.mon.SetTelemetry(reg.Gauge("monitor.flows"), nil, nil)
	g.tel.Store(t)
}

// New builds a gateway for the AS.
func New(srcAS topology.IA) *Gateway {
	return &Gateway{
		srcAS: srcAS,
		byID:  make(map[uint32]*Entry),
		mon:   monitor.NewFlowMonitor(),
	}
}

// Install registers (or replaces, on renewal) the state of an EER. auths
// are the decrypted hop authenticators σ_i in path order.
func (g *Gateway) Install(res packet.ResInfo, eer packet.EERInfo, path []packet.HopField, auths []cryptoutil.Key) error {
	if res.SrcAS != g.srcAS {
		return fmt.Errorf("gateway: reservation of AS %s installed at %s", res.SrcAS, g.srcAS)
	}
	if len(path) != len(auths) {
		return fmt.Errorf("gateway: %d hops but %d authenticators", len(path), len(auths))
	}
	e := &Entry{
		Res:         res,
		EER:         eer,
		Path:        append([]packet.HopField(nil), path...),
		auths:       append([]cryptoutil.Key(nil), auths...),
		MonitorKbps: uint64(res.BwKbps),
	}
	g.mu.Lock()
	promoted := false
	fresh := true
	if old, ok := g.byID[res.ResID]; ok {
		fresh = false
		if old.MonitorKbps > e.MonitorKbps {
			// All versions share one monitored budget: the maximum (§4.8).
			e.MonitorKbps = old.MonitorKbps
		}
		// A fresh version over a demoted flow re-promotes it to its
		// reserved class (the new entry starts undemoted).
		promoted = old.demoted.Load()
	}
	g.byID[res.ResID] = e
	g.mu.Unlock()
	if t := g.tel.Load(); t != nil {
		if fresh {
			t.resident.Inc()
		}
		if promoted {
			t.promotions.Add(1)
			t.trace.Record(int64(res.ExpT)*1e9, telemetry.EvPromote,
				reservation.ID{SrcAS: g.srcAS, Num: res.ResID}.String(), true, "renewed")
		}
	}
	// Pre-create the monitoring state so the per-packet path never
	// allocates.
	g.mon.Ensure(reservation.ID{SrcAS: g.srcAS, Num: res.ResID}, e.MonitorKbps, 0)
	return nil
}

// Demote marks a flow as best-effort-only: Build returns ErrDemoted for it
// until a fresh version is installed or Promote is called. It reports
// whether the flow transitioned (false: unknown or already demoted).
func (g *Gateway) Demote(resID uint32) bool {
	g.mu.RLock()
	e, ok := g.byID[resID]
	g.mu.RUnlock()
	changed := ok && e.demoted.CompareAndSwap(false, true)
	if changed {
		if t := g.tel.Load(); t != nil {
			t.demotions.Add(1)
			t.trace.Record(0, telemetry.EvDemote,
				reservation.ID{SrcAS: g.srcAS, Num: resID}.String(), false, "renewal failed")
		}
	}
	return changed
}

// Promote clears a flow's demotion without reinstalling (e.g. when the old
// version turns out to still be serving). It reports whether the flow
// transitioned.
func (g *Gateway) Promote(resID uint32) bool {
	g.mu.RLock()
	e, ok := g.byID[resID]
	g.mu.RUnlock()
	changed := ok && e.demoted.CompareAndSwap(true, false)
	if changed {
		if t := g.tel.Load(); t != nil {
			t.promotions.Add(1)
			t.trace.Record(0, telemetry.EvPromote,
				reservation.ID{SrcAS: g.srcAS, Num: resID}.String(), true, "")
		}
	}
	return changed
}

// Demoted reports whether the flow is currently demoted.
func (g *Gateway) Demoted(resID uint32) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.byID[resID]
	return ok && e.demoted.Load()
}

// Remove drops an EER's state (expiry).
func (g *Gateway) Remove(resID uint32) {
	g.mu.Lock()
	_, present := g.byID[resID]
	delete(g.byID, resID)
	g.mu.Unlock()
	g.mon.Forget(reservation.ID{SrcAS: g.srcAS, Num: resID})
	if t := g.tel.Load(); t != nil && present {
		t.resident.Dec()
	}
}

// Expire removes reservations whose current version has expired and returns
// how many were dropped.
func (g *Gateway) Expire(nowSec uint32) int {
	g.mu.Lock()
	var dropped []uint32
	for id, e := range g.byID {
		if nowSec >= e.Res.ExpT {
			delete(g.byID, id)
			dropped = append(dropped, id)
		}
	}
	g.mu.Unlock()
	for _, id := range dropped {
		g.mon.Forget(reservation.ID{SrcAS: g.srcAS, Num: id})
	}
	if t := g.tel.Load(); t != nil && len(dropped) > 0 {
		t.expired.Add(uint64(len(dropped)))
		t.resident.Add(-int64(len(dropped)))
		nowNs := int64(nowSec) * 1e9
		for _, id := range dropped {
			t.trace.Record(nowNs, telemetry.EvEEExpire,
				reservation.ID{SrcAS: g.srcAS, Num: id}.String(), true, "")
		}
	}
	return len(dropped)
}

// Len returns the number of installed reservations.
func (g *Gateway) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.byID)
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
// in Out, or a sentinel error (ErrUnknownRes, ErrExpired, ErrBufTooSmall,
// ErrRateExceeded). Errors are bare sentinels — no per-packet allocation.
type BuildRes struct {
	N   int
	Err error
}

// Worker holds per-goroutine scratch state for packet construction; create
// one per worker goroutine with NewWorker.
type Worker struct {
	g      *Gateway
	pkt    packet.Packet
	hvfIn  [packet.HVFInputLen]byte
	macOut [cryptoutil.MACSize]byte
	ks     cryptoutil.AESSchedule

	// Batch scratch, grown to the largest batch seen and then reused.
	entries []*Entry
	ids     []reservation.ID
	rates   []uint64
	sizes   []uint32
	allowed []bool
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
	if cap(w.entries) >= n {
		w.entries = w.entries[:n]
		w.ids = w.ids[:n]
		w.rates = w.rates[:n]
		w.sizes = w.sizes[:n]
		w.allowed = w.allowed[:n]
		return
	}
	w.entries = make([]*Entry, n)
	w.ids = make([]reservation.ID, n)
	w.rates = make([]uint64, n)
	w.sizes = make([]uint32, n)
	w.allowed = make([]bool, n)
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
// costs are paid once per batch: one RLock'd state lookup pass, one locked
// token-bucket pass, one atomic timestamp reservation for the whole batch,
// and one telemetry sample per phase with counters bumped by Add(n).
// Packets that fail keep their reservation-budget semantics from the
// single-packet path: unknown/expired/too-small consume nothing; policing
// consumes only for conforming packets.
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

	// Phase 1: one RLock for the whole batch's state lookups.
	g.mu.RLock()
	for i := 0; i < n; i++ {
		w.entries[i] = g.byID[reqs[i].ResID]
	}
	g.mu.RUnlock()
	for i := 0; i < n; i++ {
		outs[i] = BuildRes{}
		e := w.entries[i]
		w.sizes[i] = 0
		if e == nil {
			outs[i].Err = ErrUnknownRes
			continue
		}
		if nowSec >= e.Res.ExpT {
			outs[i].Err = ErrExpired
			w.entries[i] = nil
			continue
		}
		if e.demoted.Load() {
			outs[i].Err = ErrDemoted
			w.entries[i] = nil
			continue
		}
		sz := packet.DataLen(len(e.Path), len(reqs[i].Payload))
		if len(reqs[i].Out) < sz {
			outs[i].Err = ErrBufTooSmall
			w.entries[i] = nil
			continue
		}
		w.ids[i] = reservation.ID{SrcAS: g.srcAS, Num: reqs[i].ResID}
		w.rates[i] = e.MonitorKbps
		w.sizes[i] = uint32(sz)
	}
	if tel != nil {
		now := monoNow()
		tel.lookupNs.Observe(now - phaseStart)
		phaseStart = now
	}

	// Phase 2: deterministic monitoring over the total packet sizes, all
	// versions sharing the reservation's budget (§4.8) — one lock
	// acquisition and at most one bucket refill per flow for the batch.
	g.mon.AllowBatch(w.ids[:n], w.rates[:n], w.sizes[:n], nowNs, w.allowed[:n])
	toBuild := uint64(0)
	for i := 0; i < n; i++ {
		if w.entries[i] == nil {
			continue
		}
		if !w.allowed[i] {
			outs[i].Err = ErrRateExceeded
			w.entries[i] = nil
			continue
		}
		toBuild++
	}
	if tel != nil {
		now := monoNow()
		tel.bucketNs.Observe(now - phaseStart)
		phaseStart = now
	}

	// Phase 3: timestamps, HVFs, serialization. One atomic Add claims the
	// whole batch's unique timestamp range.
	built := 0
	if toBuild > 0 {
		ts := g.reserveTs(nowNs, toBuild)
		pkt := &w.pkt
		for i := 0; i < n; i++ {
			e := w.entries[i]
			if e == nil {
				continue
			}
			pkt.Type = packet.TData
			pkt.CurrHop = 0
			pkt.Res = e.Res
			pkt.EER = e.EER
			pkt.Path = e.Path
			pkt.Payload = reqs[i].Payload
			pkt.Ts = ts
			ts++
			packet.HVFInput(&w.hvfIn, pkt.Ts, w.sizes[i])
			if cap(pkt.HVFs) < len(e.Path)*packet.HVFLen {
				pkt.HVFs = make([]byte, len(e.Path)*packet.HVFLen) //colibri:allow(nomalloc) — grows to the longest path seen, then reused
			} else {
				pkt.HVFs = pkt.HVFs[:len(e.Path)*packet.HVFLen]
			}
			for h := range e.auths {
				cryptoutil.SigmaMAC(&w.ks, &e.auths[h], &w.macOut, &w.hvfIn)
				copy(pkt.HVFs[h*packet.HVFLen:(h+1)*packet.HVFLen], w.macOut[:packet.HVFLen])
			}
			sz, err := pkt.SerializeTo(reqs[i].Out)
			outs[i] = BuildRes{N: sz, Err: err}
			if err == nil {
				built++
				if tel != nil {
					tel.pktBytes.Observe(int64(sz))
				}
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
