// Package router implements the Colibri border router (§4.6): stateless
// validation and forwarding of Colibri packets at line rate. For every EER
// data packet it re-derives the hop authenticator from the AS secret
// (Eq. 4), computes the expected hop validation field (Eq. 6), and compares
// it with the packet — no per-flow or per-reservation state is consulted,
// and none is kept for a flow the overuse detector has not flagged.
// SegR control packets are validated against the Eq. (3) token instead.
//
// The router composes the protection stack of §4.8/§5: expiry and freshness
// checks, the source-AS blocklist, duplicate suppression, the probabilistic
// overuse-flow detector with escalation to deterministic monitoring, and
// finally the forwarding decision.
package router

import (
	"errors"

	"colibri/internal/cryptoutil"
	"colibri/internal/monitor"
	"colibri/internal/ofd"
	"colibri/internal/packet"
	"colibri/internal/replay"
	"colibri/internal/reservation"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// Action is the router's forwarding decision.
type Action uint8

const (
	// AForward sends the packet out of the egress interface in the verdict.
	AForward Action = iota
	// ADeliver hands the packet to the destination host (last hop).
	ADeliver
	// AControl hands the packet to the local CServ (control traffic over a
	// reservation).
	AControl
	// ADrop discards the packet; the error explains why.
	ADrop
)

// Verdict is the processing result for one packet.
type Verdict struct {
	Action  Action
	Egress  topology.IfID
	DstHost uint32
}

// Drop reasons.
var (
	ErrDecode     = errors.New("router: packet decode failed")
	ErrBadHVF     = errors.New("router: hop validation field mismatch")
	ErrExpired    = errors.New("router: reservation expired")
	ErrStale      = errors.New("router: packet timestamp outside freshness window")
	ErrBlocked    = errors.New("router: source AS is blocklisted")
	ErrReplay     = errors.New("router: duplicate packet suppressed")
	ErrOveruse    = errors.New("router: reservation overuse confirmed")
	ErrBestEffort = errors.New("router: not a reservation-validated packet")
)

// DropReason indexes the router's per-reason drop counters.
type DropReason uint8

// Drop reason indices, in protection-stack order.
const (
	DropDecode DropReason = iota
	DropExpired
	DropStale
	DropBlocked
	DropBadHVF
	DropReplay
	DropOveruse
	DropBestEffort
	numDropReasons
)

// dropErrs maps each reason to its canonical error; Drops() keys are these
// errors' messages, preserving the shape of the old map-based API.
var dropErrs = [numDropReasons]error{
	DropDecode:     ErrDecode,
	DropExpired:    ErrExpired,
	DropStale:      ErrStale,
	DropBlocked:    ErrBlocked,
	DropBadHVF:     ErrBadHVF,
	DropReplay:     ErrReplay,
	DropOveruse:    ErrOveruse,
	DropBestEffort: ErrBestEffort,
}

// DefaultFreshnessNs tolerates the paper's ±0.1 s clock skew plus queueing.
const DefaultFreshnessNs = 500 * 1e6

// Config assembles a Router.
type Config struct {
	IA topology.IA
	// Secret is the AS data-plane secret K_i (shared with the CServ).
	Secret cryptoutil.Key
	// FreshnessNs bounds |now − Ts| (default DefaultFreshnessNs).
	FreshnessNs int64
	// Replay enables duplicate suppression when non-nil: the router builds
	// its suppressor from it, covering FreshnessNs. The suppressor takes no
	// lock, so the Router is then driven by one goroutine at a time.
	Replay *replay.Config
	// OFD enables probabilistic overuse detection when non-nil. The detector
	// takes no lock: it belongs to this Router alone, which is then driven by
	// one goroutine at a time.
	OFD *ofd.Detector
	// Blocklist holds offending source ASes (created if nil).
	Blocklist *monitor.Blocklist
	// OnOveruse is called when overuse is confirmed for a reservation
	// (reporting to the CServ, §4.8); may be nil.
	OnOveruse func(id reservation.ID)
	// PoliceOnly makes confirmed overuse drop the offending packets
	// (clamping the flow to its reservation) without blocklisting the
	// source AS — the stance of the paper's Table 2 phase 3, where flagged
	// reservations are policed by the token bucket. Default false:
	// confirmed overuse blocks the source AS.
	PoliceOnly bool
	// DetMonitor, when non-nil, replaces the router's private deterministic
	// flow monitor and watch table (a flow is watched while it has an entry).
	// The sharded data plane injects a shard monitor backed by a shared
	// ReservePool here, so escalated flows of one reservation are policed to
	// the exact aggregate rate across shards (see monitor's reserve.go).
	DetMonitor *monitor.FlowMonitor
	// Telemetry attaches the router's instruments to an AS-wide registry
	// and enables the optional processed-packets counter and the
	// drop-verdict tracer. When nil the router still keeps its per-reason
	// drop counters (served by Drops) but adds no per-packet work on the
	// forwarding path.
	Telemetry *telemetry.Registry
}

// Router is one AS's border-router state shared across workers. The
// stateless stages (MACs, freshness, the blocklist and watch table under
// their own locks, atomic drop counters) serve any number of concurrent
// Workers. The stateful ones, the replay filter and the overuse sketch, have
// one owner: a Router with either is driven by one goroutine at a time,
// through any of its Workers. Sharded is the multi-core face, one Router per
// shard owned by one pool worker per dispatch.
type Router struct {
	ia          topology.IA
	secret      cryptoutil.Key
	freshnessNs int64
	replay      *replay.Suppressor
	det         *ofd.Detector
	blocklist   *monitor.Blocklist
	onOveruse   func(id reservation.ID)
	policeOnly  bool
	detMon      *monitor.FlowMonitor

	// drops counts processing outcomes per reason. Sharded lock-free
	// counters let drop accounting and Drops() readers proceed without a
	// shared mutex; readers see each counter via an atomic load, so a
	// Drops() copy is consistent (no torn values) under concurrent Process
	// calls.
	drops [numDropReasons]*telemetry.Counter

	// hot holds the optional per-packet instruments (nil when no telemetry
	// registry is configured, keeping the forwarding path increment-free).
	hot *routerHot
}

// routerHot bundles the per-packet instruments behind one nil check. Only
// `processed` is bumped per packet: forwarded = processed − drops is an
// invariant of Process, so Forwarded() derives it instead of paying a
// second atomic add on the hot path.
type routerHot struct {
	processed *telemetry.Counter
	trace     *telemetry.Tracer
}

// New builds a Router.
func New(cfg Config) *Router {
	if cfg.FreshnessNs == 0 {
		cfg.FreshnessNs = DefaultFreshnessNs
	}
	if cfg.Blocklist == nil {
		cfg.Blocklist = monitor.NewBlocklist()
	}
	if cfg.DetMonitor == nil {
		cfg.DetMonitor = monitor.NewFlowMonitor()
	}
	r := &Router{
		ia:          cfg.IA,
		secret:      cfg.Secret,
		freshnessNs: cfg.FreshnessNs,
		det:         cfg.OFD,
		blocklist:   cfg.Blocklist,
		onOveruse:   cfg.OnOveruse,
		policeOnly:  cfg.PoliceOnly,
		detMon:      cfg.DetMonitor,
	}
	if cfg.Replay != nil {
		r.replay = replay.NewCovering(*cfg.Replay, cfg.FreshnessNs)
	}
	if reg := cfg.Telemetry; reg != nil {
		if r.replay != nil {
			r.replay.SetGauges(reg.Gauge("replay.window_inserts"), reg.Gauge("replay.filter_bytes"))
		}
		// One series per DropReason: the suffix set is the closed dropSlug
		// enum, not unbounded input.
		for reason := range r.drops {
			r.drops[reason] = reg.Counter("router.drop." + dropSlug(DropReason(reason))) //colibri:allow(telemetry)
		}
		r.hot = &routerHot{
			processed: reg.Counter("router.processed"),
			trace:     reg.Tracer("router.drops", 0),
		}
		r.detMon.SetTelemetry(reg.Gauge("router.watched"), reg.Counter("router.escalated"), reg.Counter("router.cleared"))
	} else {
		for reason := range r.drops {
			r.drops[reason] = telemetry.NewCounter()
		}
	}
	return r
}

// dropSlug names a drop reason for registry instruments.
func dropSlug(reason DropReason) string {
	switch reason {
	case DropDecode:
		return "decode"
	case DropExpired:
		return "expired"
	case DropStale:
		return "stale"
	case DropBlocked:
		return "blocked"
	case DropBadHVF:
		return "bad_hvf"
	case DropReplay:
		return "replay"
	case DropOveruse:
		return "overuse"
	case DropBestEffort:
		return "best_effort"
	default:
		return "other"
	}
}

// Blocklist returns the router's blocklist (shared with policy decisions).
//
//colibri:allow(testonly) — core's TestForwardDropReasonsSurface blocks a source AS at two routers through it
func (r *Router) Blocklist() *monitor.Blocklist { return r.blocklist }

// Watch places a reservation under deterministic monitoring as the detector's
// flag does (an operator's seed, as in the paper's Table 2 phase 3); the entry
// leaves with the reservation version of its first packet unless it overuses.
func (r *Router) Watch(id reservation.ID) { r.detMon.Watch(id, 0) }

// Watched returns the number of flows under deterministic monitoring.
//
//colibri:allow(testonly) — core's TestConformingSessionsStayUnwatched reads every router's watch count
func (r *Router) Watched() int { return r.detMon.Len() }

// Drops returns a copy of the drop counters, keyed by the canonical reason
// message (e.g. ErrBadHVF.Error()). Reasons never observed are omitted.
// Each value is an atomic read of a monotone counter, so the copy is
// consistent under concurrent Process calls.
func (r *Router) Drops() map[string]uint64 {
	out := make(map[string]uint64, len(r.drops))
	for reason, c := range r.drops {
		if v := c.Value(); v > 0 {
			out[dropErrs[reason].Error()] = v
		}
	}
	return out
}

// dropAcc accumulates a batch's drop counts per reason; ProcessBatch
// flushes it with one counter Add per observed reason instead of one
// atomic increment per dropped packet.
type dropAcc [numDropReasons]uint32

// countDrop accounts one dropped packet into the batch accumulator and,
// when tracing is enabled, records the verdict. decoded tells whether
// w.pkt holds valid reservation info for the trace (false on decode
// failures).
func (w *Worker) countDrop(acc *dropAcc, reason DropReason, nowNs int64, decoded bool) {
	acc[reason]++
	r := w.r
	if r.hot != nil {
		if decoded {
			r.hot.trace.RecordID(nowNs, telemetry.EvDrop, uint64(w.pkt.Res.SrcAS), w.pkt.Res.ResID, false, dropSlug(reason))
		} else {
			r.hot.trace.Record(nowNs, telemetry.EvDrop, "", false, dropSlug(reason))
		}
	}
}

// flushDrops folds the batch accumulator into the shared counters.
func (r *Router) flushDrops(acc *dropAcc) {
	for reason, n := range acc {
		if n > 0 {
			r.drops[reason].Add(uint64(n))
		}
	}
}

// Worker holds per-goroutine scratch state; create one per goroutine.
type Worker struct {
	r      *Router
	pkt    packet.Packet
	cbc    *cryptoutil.CBCMAC
	segIn  [packet.SegAuthLen]byte
	eerIn  [packet.EERAuthLen]byte
	hvfIn  [packet.HVFInputLen]byte
	macOut [cryptoutil.MACSize]byte
}

// NewWorker creates a processing worker.
func (r *Router) NewWorker() *Worker {
	return &Worker{r: r, cbc: cryptoutil.MustCBCMAC(r.secret)}
}

// Process validates the serialized Colibri packet in buf at time nowNs and
// returns the forwarding verdict. buf is modified in place only to advance
// the current hop on AForward. Dropped packets return Action ADrop and their
// reason's sentinel error (ErrDecode, ErrBadHVF, …), bare. Process is a batch
// of one — ProcessBatch is the primary pipeline.
func (w *Worker) Process(buf []byte, nowNs int64) (Verdict, error) {
	r := w.r
	if r.hot != nil {
		r.hot.processed.Inc()
	}
	var acc dropAcc
	v, err := w.processOne(buf, nowNs, &acc)
	r.flushDrops(&acc)
	return v, err
}

// BatchVerdict is the per-packet outcome of ProcessBatch.
type BatchVerdict struct {
	Verdict
	Err error
}

// ProcessBatch validates a burst of serialized packets at a common instant
// nowNs, writing per-packet outcomes into verdicts (which must be at least
// as long as pkts) and returning the number of packets that passed
// validation. Fixed costs are amortized across the burst: the processed
// counter is bumped once with Add(n) and drop counters are flushed once
// per reason at the end, so the per-packet path touches no shared atomics
// on the happy path.
//
//colibri:nomalloc
func (w *Worker) ProcessBatch(pkts [][]byte, verdicts []BatchVerdict, nowNs int64) int {
	r := w.r
	if len(verdicts) < len(pkts) {
		panic("router: verdicts shorter than pkts") //colibri:allow(nomalloc) — cold misuse guard
	}
	if r.hot != nil {
		r.hot.processed.Add(uint64(len(pkts)))
	}
	var acc dropAcc
	passed := 0
	for i, buf := range pkts {
		v, err := w.processOne(buf, nowNs, &acc)
		verdicts[i] = BatchVerdict{Verdict: v, Err: err}
		if err == nil {
			passed++
		}
	}
	r.flushDrops(&acc)
	return passed
}

// processOne runs the full protection stack for one packet, accounting
// drops into acc. No path allocates: a drop returns its reason's sentinel
// error (ErrDecode, ErrExpired, …) bare.
//
//colibri:nomalloc
func (w *Worker) processOne(buf []byte, nowNs int64, acc *dropAcc) (Verdict, error) {
	r := w.r
	pkt := &w.pkt
	hop, _, err := pkt.DecodeHop(buf)
	if err != nil {
		w.countDrop(acc, DropDecode, nowNs, false)
		return Verdict{Action: ADrop}, ErrDecode
	}
	idx := int(pkt.CurrHop)

	// Expiry and freshness (§4.6: "checks whether the reservation has not
	// expired yet" and "packet freshness").
	if uint32(nowNs/1e9) >= pkt.Res.ExpT {
		w.countDrop(acc, DropExpired, nowNs, true)
		return Verdict{Action: ADrop}, ErrExpired
	}
	delta := nowNs - int64(pkt.Ts)
	if delta < -r.freshnessNs || delta > r.freshnessNs {
		w.countDrop(acc, DropStale, nowNs, true)
		return Verdict{Action: ADrop}, ErrStale
	}
	// Blocklist (§4.8: "keeping a list of blocked source ASes").
	if r.blocklist.Blocked(pkt.Res.SrcAS, uint32(nowNs/1e9)) {
		w.countDrop(acc, DropBlocked, nowNs, true)
		return Verdict{Action: ADrop}, ErrBlocked
	}

	// Cryptographic validation.
	switch pkt.Type {
	case packet.TData, packet.TEERenewReq:
		// Two-step EER validation (Eqs. 4 and 6) in one kernel call: σ is
		// derived and used as the next key without leaving registers.
		packet.EERAuthInput(&w.eerIn, &pkt.Res, &pkt.EER, hop)
		packet.HVFInput(&w.hvfIn, pkt.Ts, uint32(len(buf)))
		w.cbc.HopMAC(&w.eerIn, &w.hvfIn, &w.macOut)
		if !cryptoutil.ConstantTimeEqual(w.macOut[:packet.HVFLen], pkt.HVF(idx)) {
			w.countDrop(acc, DropBadHVF, nowNs, true)
			return Verdict{Action: ADrop}, ErrBadHVF
		}
	case packet.TSegRenewReq, packet.TSegActivate, packet.TEESetupReq, packet.TResponse:
		// SegR token validation (Eq. 3).
		packet.SegAuthInput(&w.segIn, &pkt.Res, hop)
		w.cbc.SumInto(&w.macOut, w.segIn[:])
		if !cryptoutil.ConstantTimeEqual(w.macOut[:packet.HVFLen], pkt.HVF(idx)) {
			w.countDrop(acc, DropBadHVF, nowNs, true)
			return Verdict{Action: ADrop}, ErrBadHVF
		}
	case packet.TSegSetupReq:
		// Initial SegR setup requests arrive as best-effort traffic and are
		// authenticated at the CServ (§5.3); the router only forwards them.
	default:
		w.countDrop(acc, DropBestEffort, nowNs, true)
		return Verdict{Action: ADrop}, ErrBestEffort
	}

	id := reservation.ID{SrcAS: pkt.Res.SrcAS, Num: pkt.Res.ResID}

	// Duplicate suppression (§5.1: "all copies of the same packet are
	// discarded"), filed under the packet's own Ts for as long as the
	// freshness check above would pass a copy.
	if r.replay != nil && pkt.Type == packet.TData {
		if !r.replay.Check(replay.PacketID(uint64(pkt.Res.SrcAS), pkt.Res.ResID, pkt.Ts), int64(pkt.Ts), nowNs) {
			w.countDrop(acc, DropReplay, nowNs, true)
			return Verdict{Action: ADrop}, ErrReplay
		}
	}

	// Monitoring (§4.8). A watched flow (flagged earlier, or seeded via
	// Watch) is policed by its exact bucket and kept out of the sketch; any
	// other flow costs the sketch's counters and nothing per flow until the
	// packet that finds it over the threshold.
	if pkt.Type == packet.TData {
		size, rate := uint32(len(buf)), pkt.Res.BwKbps
		watched, ok := false, true
		if r.detMon.Len() != 0 {
			watched, ok = r.detMon.Police(id, rate, size, pkt.Res.ExpT, nowNs)
		}
		if !watched && r.det != nil && r.det.Record(id, ofd.NormalizedSize(size, uint64(rate)), nowNs) {
			ok = r.detMon.Escalate(id, rate, size, pkt.Res.ExpT, nowNs) //colibri:allow(nomalloc) — watch-table growth on an unwatched→watched transition, amortized
		}
		if !ok {
			// Overuse established with certainty: police, and unless
			// configured police-only, block and report the source AS.
			if !r.policeOnly {
				r.blocklist.Block(pkt.Res.SrcAS, uint32(nowNs/1e9)+reservation.SegRLifetimeSeconds)
				if r.onOveruse != nil {
					r.onOveruse(id)
				}
			}
			w.countDrop(acc, DropOveruse, nowNs, true)
			return Verdict{Action: ADrop}, ErrOveruse
		}
	}

	// Forwarding decision.
	if pkt.Type.IsControl() && pkt.Type != packet.TData {
		return Verdict{Action: AControl, Egress: hop.Eg}, nil
	}
	if idx == packet.PathLenOf(buf)-1 {
		return Verdict{Action: ADeliver, DstHost: pkt.EER.DstHost}, nil
	}
	packet.SetCurrHopInPlace(buf, pkt.CurrHop+1)
	return Verdict{Action: AForward, Egress: hop.Eg}, nil
}
