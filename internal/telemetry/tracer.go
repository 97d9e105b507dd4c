package telemetry

import (
	"fmt"
	"sync/atomic"
	"unsafe"
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

// Tracer is a fixed-capacity ring of lifecycle events: recording never
// allocates after construction and old events are overwritten, so a tracer can
// stay attached to a long-running service at constant memory.
//
// Recording takes no lock. A writer claims its event's sequence number, and
// with it the slot, by one atomic add on the tracer's count, and writes a
// fixed entry of four words that holds no pointer: the time, the reservation's
// source AS, its number with the kind, outcome and text indices, and the
// sequence number XORed with a fingerprint of the other three words. Texts — a
// reservation named by string, a detail — are interned once into the tracer's
// table and named by their index there; Events renders them, and formats a
// reservation kept numerically (RecordID), only on read.
//
// A reader takes a slot's entry only if its words give back the sequence
// number the reader expects there. An entry a writer is still writing, or one
// torn by two writers that claimed the same slot a lap apart, fails the check
// (a mix of two entries passes it with probability 2⁻⁶⁴) and is left out, so
// Events returns only events that were recorded whole, in strictly increasing
// sequence order.
type Tracer struct {
	total atomic.Uint64
	mask  uint64
	ring  []entry
	texts textTable
}

// entry is one recorded event: w[0] the time, w[1] the reservation's source
// AS, w[2] its number (low 32 bits), kind (8), the outcome and numeric flags,
// and the indices of the reservation's text (8) and of the detail (8), w[3]
// the sequence number XORed with fingerprint(w[0], w[1], w[2]).
type entry struct{ w [4]uint64 }

// The fields of entry.w[2] above the reservation number.
const (
	kindShift    = 32
	okBit        = 1 << 40
	numericBit   = 1 << 41
	resTextShift = 48
	detailShift  = 56
)

// DefaultTraceCap is the ring capacity used when a caller passes 0.
const DefaultTraceCap = 256

// NewTracer builds a tracer holding the last capacity events (0 →
// DefaultTraceCap), rounded up to a power of two.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Tracer{mask: uint64(n - 1), ring: make([]entry, n)}
}

// Record appends one event, overwriting the oldest when full.
func (t *Tracer) Record(nowNs int64, kind EventKind, res string, ok bool, detail string) {
	t.put(nowNs, 0, uint64(kind)<<kindShift|t.texts.index(res)<<resTextShift|t.texts.index(detail)<<detailShift|okFlag(ok))
}

// RecordID is Record for an event about the reservation (src, num) — an
// ISD-AS in the top 16 / low 48 bits of src, and the reservation's number —
// whose Res reads "ISD-AS#num", the text of reservation.ID.String().
func (t *Tracer) RecordID(nowNs int64, kind EventKind, src uint64, num uint32, ok bool, detail string) {
	t.put(nowNs, src, uint64(num)|uint64(kind)<<kindShift|numericBit|t.texts.index(detail)<<detailShift|okFlag(ok))
}

func okFlag(ok bool) uint64 {
	if ok {
		return okBit
	}
	return 0
}

// put claims the next sequence number and writes the entry of the event whose
// first words are nowNs, src and w2 into its slot.
func (t *Tracer) put(nowNs int64, src, w2 uint64) {
	fp := fingerprint(uint64(nowNs), src, w2)
	seq := t.total.Add(1)
	t.write(&t.ring[(seq-1)&t.mask], entry{w: [4]uint64{uint64(nowNs), src, w2, seq ^ fp}})
}

// write stores e into a slot a reader may be reading. The entry's last word
// makes it self-checking (see Tracer), which is what synchronises writer and
// reader; the race detector, which cannot see that, is told to look away.
//
//go:norace
func (t *Tracer) write(slot *entry, e entry) { *slot = e }

// read loads a slot a writer may be writing; see write.
//
//go:norace
func (t *Tracer) read(slot *entry) entry { return *slot }

// fingerprint hashes an entry's first three words: each by its own odd
// multiplier, which a word of another entry changes, then mixed.
func fingerprint(a, b, c uint64) uint64 {
	h := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9 + c*0x94d049bb133111eb
	return (h ^ h>>32) * 0xd6e8feb86659fd93
}

// Events returns the retained events whose recording has completed, oldest
// first.
func (t *Tracer) Events() []Event {
	total := t.total.Load()
	n := min(total, t.mask+1)
	out := make([]Event, 0, n)
	for seq := total - n + 1; seq <= total; seq++ {
		e := t.read(&t.ring[(seq-1)&t.mask])
		w0, w1, w2 := e.w[0], e.w[1], e.w[2]
		if e.w[3]^fingerprint(w0, w1, w2) != seq {
			continue
		}
		ev := Event{Seq: seq, TimeNs: int64(w0), Kind: EventKind(w2 >> kindShift), OK: w2&okBit != 0,
			Detail: t.texts.text(w2 >> detailShift)}
		if w2&numericBit != 0 {
			ev.Res = fmt.Sprintf("%d-%d#%d", w1>>48, w1&(1<<48-1), uint32(w2))
		} else {
			ev.Res = t.texts.text(w2 >> resTextShift & 0xff)
		}
		out = append(out, ev)
	}
	return out
}

// textTable interns the texts a tracer records, so that an entry names each by
// a byte: index 0 is "", 1…textCap-2 are the texts in the order first seen,
// and overflowIndex stands for any text the full table could not take.
// Recorders pass texts from small fixed vocabularies (refusal reasons, drop
// verdicts). A lookup takes no lock: a slot, once set, never changes.
type textTable struct {
	slots [textCap]atomic.Pointer[string]
}

const (
	textCap       = 256
	overflowIndex = textCap - 1
	textOverflow  = "…"
)

// index returns the index of s, interning it first if it is new. A text
// recorded before from the same constant is found at its home slot by its
// address.
func (x *textTable) index(s string) uint64 {
	if s == "" {
		return 0
	}
	j := home(s)
	if p := x.slots[j].Load(); p != nil && unsafe.StringData(*p) == unsafe.StringData(s) && len(*p) == len(s) {
		return j
	}
	return x.lookup(s, j)
}

// home is the first slot index probes for s, one of 1…128.
func home(s string) uint64 {
	return 1 + (uint64(len(s))*0x9e3779b9^uint64(s[0])<<8^uint64(s[len(s)-1]))&127
}

// lookup is index past the home slot's address check: the probe from home on,
// by content, and the interning of a new text.
//
//go:noinline
func (x *textTable) lookup(s string, j uint64) uint64 {
	for range textCap - 2 {
		p := x.slots[j].Load()
		if p == nil {
			if x.intern(j, s) {
				return j
			}
			p = x.slots[j].Load()
		}
		if *p == s {
			return j
		}
		if j++; j == overflowIndex {
			j = 1
		}
	}
	return overflowIndex
}

// intern sets empty slot j to s, unless another writer set it first.
func (x *textTable) intern(j uint64, s string) bool { return x.slots[j].CompareAndSwap(nil, &s) }

// text returns the text of index i.
func (x *textTable) text(i uint64) string {
	if i == overflowIndex {
		return textOverflow
	}
	if p := x.slots[i].Load(); p != nil {
		return *p
	}
	return ""
}
