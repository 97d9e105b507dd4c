package telemetry

import (
	"fmt"
	"sync"
)

// EventKind classifies a lifecycle event.
type EventKind uint8

// Lifecycle event kinds: segment-reservation setup/renewal/activation, EER
// setup/renewal/expiry, data-plane drop verdicts, and best-effort
// demotion/re-promotion of flows whose renewal failed/recovered.
const (
	EvSegSetup EventKind = iota + 1
	EvSegRenew
	EvSegActivate
	EvEESetup
	EvEERenew
	EvEEExpire
	EvDrop
	EvDemote
	EvPromote
)

func (k EventKind) String() string {
	switch k {
	case EvSegSetup:
		return "seg-setup"
	case EvSegRenew:
		return "seg-renew"
	case EvSegActivate:
		return "seg-activate"
	case EvEESetup:
		return "ee-setup"
	case EvEERenew:
		return "ee-renew"
	case EvEEExpire:
		return "ee-expire"
	case EvDrop:
		return "drop"
	case EvDemote:
		return "demote"
	case EvPromote:
		return "promote"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one recorded lifecycle event.
type Event struct {
	// Seq numbers events in recording order (1-based, monotone per tracer).
	Seq uint64 `json:"seq"`
	// TimeNs is the caller-supplied timestamp (virtual or wall clock).
	TimeNs int64 `json:"time_ns"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Res names the reservation involved ("" when not applicable).
	Res string `json:"res,omitempty"`
	// OK is the outcome (true for successful setups/renewals; false for
	// failures and drops).
	OK bool `json:"ok"`
	// Detail carries a failure reason or drop verdict.
	Detail string `json:"detail,omitempty"`

	// A reservation id recorded numerically (RecordID) stays numeric in the
	// ring; Events renders it into Res, so recording formats nothing.
	numeric bool
	resSrc  uint64
	resNum  uint32
}

func (e Event) String() string {
	out := fmt.Sprintf("#%d t=%dns %s", e.Seq, e.TimeNs, e.Kind)
	if e.Res != "" {
		out += " " + e.Res
	}
	if e.OK {
		out += " ok"
	} else {
		out += " FAIL"
	}
	if e.Detail != "" {
		out += " (" + e.Detail + ")"
	}
	return out
}

// Tracer is a fixed-capacity ring buffer of lifecycle events: recording
// never allocates after construction and old events are overwritten, so a
// tracer can stay attached to a long-running service at constant memory.
// Lifecycle events are control-plane-rate (setups, renewals, drops), so a
// mutex — not sharding — guards the ring. Safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	buf   []Event
	total uint64
}

// DefaultTraceCap is the ring capacity used when a caller passes 0.
const DefaultTraceCap = 256

// NewTracer builds a tracer holding the last capacity events (0 →
// DefaultTraceCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Record appends one event, overwriting the oldest when full.
func (t *Tracer) Record(nowNs int64, kind EventKind, res string, ok bool, detail string) {
	t.put(Event{TimeNs: nowNs, Kind: kind, Res: res, OK: ok, Detail: detail})
}

// RecordID is Record for an event about the reservation (src, num) — an
// ISD-AS in the top 16 / low 48 bits of src, and the reservation's number —
// whose Res reads "ISD-AS#num", the text of reservation.ID.String().
func (t *Tracer) RecordID(nowNs int64, kind EventKind, src uint64, num uint32, ok bool, detail string) {
	t.put(Event{TimeNs: nowNs, Kind: kind, OK: ok, Detail: detail, numeric: true, resSrc: src, resNum: num})
}

func (t *Tracer) put(e Event) {
	t.mu.Lock()
	t.total++
	e.Seq = t.total
	t.buf[(t.total-1)%uint64(len(t.buf))] = e
	t.mu.Unlock()
}

// render returns e as Events hands it out: a numeric reservation id as text.
func (e Event) render() Event {
	if e.numeric {
		e.Res = fmt.Sprintf("%d-%d#%d", e.resSrc>>48, e.resSrc&(1<<48-1), e.resNum)
		e.numeric, e.resSrc, e.resNum = false, 0, 0
	}
	return e
}

// Total returns how many events were ever recorded.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.total
	capacity := uint64(len(t.buf))
	if n > capacity {
		n = capacity
	}
	out := make([]Event, 0, n)
	start := t.total - n
	for i := uint64(0); i < n; i++ {
		out = append(out, t.buf[(start+i)%capacity].render())
	}
	return out
}
