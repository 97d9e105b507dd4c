package cserv

import (
	"fmt"

	"colibri/internal/reservation"
	"colibri/internal/telemetry"
)

// Metrics counts the service's control-plane activity. It is a thin shim
// over a telemetry.Registry: each field is a sharded telemetry.Counter, so
// existing callers keep their `metrics.X.Add(1)` call shape while the
// counters appear in registry snapshots next to the rest of the stack's
// instruments. All counters are safe for concurrent use; Snapshot returns
// a consistent copy (each value is an atomic read and never decreases).
type Metrics struct {
	SegSetupOK    *telemetry.Counter
	SegSetupFail  *telemetry.Counter
	SegRenewOK    *telemetry.Counter
	SegRenewFail  *telemetry.Counter
	SegActivate   *telemetry.Counter
	EESetupOK     *telemetry.Counter
	EESetupFail   *telemetry.Counter
	EERenewOK     *telemetry.Counter
	EERenewFail   *telemetry.Counter
	AuthFailures  *telemetry.Counter
	RateLimited   *telemetry.Counter
	RenewThrottle *telemetry.Counter
	// Resilience counters (see retry.go, keeper.go and the dedup paths in
	// segr.go/eer.go): retried requests recognized and answered
	// idempotently, renewals refused for granting zero bandwidth, and
	// flows demoted to / re-promoted from best-effort.
	DedupHits   *telemetry.Counter
	RenewZeroBw *telemetry.Counter
	Demotions   *telemetry.Counter
	Promotions  *telemetry.Counter
	// Admission-outcome counters: the per-request OK/Fail counters above
	// count protocol outcomes, which hides *why* requests fail. AdmReject
	// counts requests the admission algorithm itself refused (SegR or EER,
	// setup or renewal); AdmFallback counts failed renewals where the
	// previous reservation snapshot was restored and the flow continues on
	// its old version instead of being torn down.
	AdmReject   *telemetry.Counter
	AdmFallback *telemetry.Counter

	reg   *telemetry.Registry
	trace *telemetry.Tracer
}

// init binds the shim to a registry (creating a private one when reg is
// nil, so a Service always has working metrics).
func (m *Metrics) init(label string, reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.NewRegistry(label)
	}
	m.reg = reg
	m.SegSetupOK = reg.Counter("cserv.seg_setup_ok")
	m.SegSetupFail = reg.Counter("cserv.seg_setup_fail")
	m.SegRenewOK = reg.Counter("cserv.seg_renew_ok")
	m.SegRenewFail = reg.Counter("cserv.seg_renew_fail")
	m.SegActivate = reg.Counter("cserv.seg_activate")
	m.EESetupOK = reg.Counter("cserv.ee_setup_ok")
	m.EESetupFail = reg.Counter("cserv.ee_setup_fail")
	m.EERenewOK = reg.Counter("cserv.ee_renew_ok")
	m.EERenewFail = reg.Counter("cserv.ee_renew_fail")
	m.AuthFailures = reg.Counter("cserv.auth_failures")
	m.RateLimited = reg.Counter("cserv.rate_limited")
	m.RenewThrottle = reg.Counter("cserv.renew_throttle")
	m.DedupHits = reg.Counter("cserv.dedup_hits")
	m.RenewZeroBw = reg.Counter("cserv.renew_zero_bw")
	m.Demotions = reg.Counter("cserv.demotions")
	m.Promotions = reg.Counter("cserv.promotions")
	m.AdmReject = reg.Counter("admission.reject")
	m.AdmFallback = reg.Counter("admission.fallback")
	m.trace = reg.Tracer("cserv.lifecycle", 0)
}

// Trace records a reservation-lifecycle event on the service's tracer.
func (m *Metrics) Trace(nowNs int64, kind telemetry.EventKind, res string, ok bool, detail string) {
	m.trace.Record(nowNs, kind, res, ok, detail)
}

// TraceID is Trace for an event about one reservation, whose id the tracer
// keeps numerically: nothing is formatted on the request path.
func (m *Metrics) TraceID(nowNs int64, kind telemetry.EventKind, id reservation.ID, ok bool, detail string) {
	m.trace.RecordID(nowNs, kind, uint64(id.SrcAS), id.Num, ok, detail)
}

// MetricsSnapshot is a point-in-time copy of the counters.
type MetricsSnapshot struct {
	SegSetupOK, SegSetupFail  uint64
	SegRenewOK, SegRenewFail  uint64
	SegActivate               uint64
	EESetupOK, EESetupFail    uint64
	EERenewOK, EERenewFail    uint64
	AuthFailures, RateLimited uint64
	RenewThrottle             uint64
	DedupHits, RenewZeroBw    uint64
	Demotions, Promotions     uint64
	AdmReject, AdmFallback    uint64
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		SegSetupOK:    m.SegSetupOK.Value(),
		SegSetupFail:  m.SegSetupFail.Value(),
		SegRenewOK:    m.SegRenewOK.Value(),
		SegRenewFail:  m.SegRenewFail.Value(),
		SegActivate:   m.SegActivate.Value(),
		EESetupOK:     m.EESetupOK.Value(),
		EESetupFail:   m.EESetupFail.Value(),
		EERenewOK:     m.EERenewOK.Value(),
		EERenewFail:   m.EERenewFail.Value(),
		AuthFailures:  m.AuthFailures.Value(),
		RateLimited:   m.RateLimited.Value(),
		RenewThrottle: m.RenewThrottle.Value(),
		DedupHits:     m.DedupHits.Value(),
		RenewZeroBw:   m.RenewZeroBw.Value(),
		Demotions:     m.Demotions.Value(),
		Promotions:    m.Promotions.Value(),
		AdmReject:     m.AdmReject.Value(),
		AdmFallback:   m.AdmFallback.Value(),
	}
}

func (s MetricsSnapshot) String() string {
	return fmt.Sprintf(
		"seg setup %d/%d renew %d/%d activate %d | ee setup %d/%d renew %d/%d | auth-fail %d rate-limited %d renew-throttled %d | dedup %d zero-bw %d demote %d promote %d | adm reject %d fallback %d",
		s.SegSetupOK, s.SegSetupFail, s.SegRenewOK, s.SegRenewFail, s.SegActivate,
		s.EESetupOK, s.EESetupFail, s.EERenewOK, s.EERenewFail,
		s.AuthFailures, s.RateLimited, s.RenewThrottle,
		s.DedupHits, s.RenewZeroBw, s.Demotions, s.Promotions,
		s.AdmReject, s.AdmFallback)
}
