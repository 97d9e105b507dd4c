package admission

import (
	"errors"
	"sort"
	"testing"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// admitter is what the harness drives: the operations the memoized State and
// its oracle NaiveState share.
type admitter interface {
	AdmitSegR(Request) (uint64, error)
	RenewSegR(Request) (uint64, error)
	Release(reservation.ID)
	SetTubeCapKbps(in, eg topology.IfID, capKbps uint64)
	AllocatedKbps(eg topology.IfID) uint64
	Len() int
}

// FuzzAdmissionEquivalence drives identical op sequences — setup, renew,
// teardown, time advancement with timed releases, tube-cap changes — through
// the memoized State and the naive oracle and requires equivalent results:
// the same error class on every op, and grants that agree within 1 kbps. The
// naive implementation re-sums the adjusted demands of the *live* set in
// insertion order, which is a different (deterministic) float evaluation
// order than the memoized add/subtract history, so the last ulp of the
// proportional share — and hence the truncated grant — may differ by one.
//
// Every reservation carries a lifetime; the harness releases the lapsed ones
// from both implementations in (expiry epoch, admission order) order before
// each op, so both always see the same live set.
func FuzzAdmissionEquivalence(f *testing.F) {
	// Ops are 4-byte groups: opcode, selector, and two parameter bytes.
	op := func(code, sel, p0, p1 byte) []byte { return []byte{code, sel, p0, p1} }
	cat := func(ops ...[]byte) []byte {
		var out []byte
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	// Epoch-boundary seed: admit a short-lived reservation, advance exactly
	// onto its expiry epoch boundary, then admit again and renew.
	f.Add(cat(
		op(0, 1, 10, 0), // admit, lifetime from p0
		op(4, 7, 0, 0),  // advance time
		op(0, 2, 50, 1),
		op(4, 15, 0, 0),
		op(2, 0, 80, 2), // renew first live entry
		op(4, 15, 0, 0),
		op(3, 0, 0, 0), // release
	))
	// Zero-grant seed: zero tube capacity forces adj = 0 and a zero grant
	// (admitted with MinKbps == 0), then churn on top.
	f.Add(cat(
		op(5, 1, 0, 0), // tube cap 0 on ingress 1
		op(0, 1, 40, 0),
		op(0, 1, 60, 0),
		op(5, 1, 3, 0), // raise tube cap
		op(2, 0, 90, 3),
		op(4, 9, 0, 0),
		op(3, 1, 0, 0),
	))
	// Contention seed: many large demands through one ingress.
	f.Add(cat(
		op(0, 1, 200, 40), op(0, 1, 210, 40), op(0, 3, 220, 40),
		op(0, 5, 230, 40), op(4, 3, 0, 0), op(2, 1, 240, 40),
		op(3, 0, 0, 0), op(0, 7, 250, 40),
	))
	f.Fuzz(runEquivalence)
}

// TestAdmissionEquivalenceSeeds runs the fuzz harness deterministically so
// the differential check is exercised by plain `go test` too.
func TestAdmissionEquivalenceSeeds(t *testing.T) {
	data := make([]byte, 0, 4*256)
	// A pseudo-random but fixed op tape (simple LCG, no global rand).
	x := uint32(12345)
	for i := 0; i < 256; i++ {
		x = x*1664525 + 1013904223
		data = append(data, byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
	}
	runEquivalence(t, data)
}

const equivEpochSec = 4

type equivLive struct {
	req      Request
	endEpoch int64
	seq      uint64
}

func runEquivalence(t *testing.T, data []byte) {
	as := testAS(t, 3, 50_000)
	now := uint32(1_000)
	mem, nai := admitter(NewState(as, DefaultSplit)), admitter(NewNaiveState(as, DefaultSplit))

	var live []equivLive
	var seq uint64
	nextNum := uint32(1)

	// expire releases every live entry whose lifetime ended at or before now,
	// in (expiry epoch, admission order) order.
	expire := func() {
		cur := int64(now / equivEpochSec)
		var due []equivLive
		kept := live[:0]
		for _, l := range live {
			if l.endEpoch <= cur {
				due = append(due, l)
			} else {
				kept = append(kept, l)
			}
		}
		live = kept
		sort.Slice(due, func(i, j int) bool {
			if due[i].endEpoch != due[j].endEpoch {
				return due[i].endEpoch < due[j].endEpoch
			}
			return due[i].seq < due[j].seq
		})
		for _, l := range due {
			mem.Release(l.req.ID)
			nai.Release(l.req.ID)
		}
	}

	checkErrs := func(opName string, em, en error) {
		for _, sentinel := range []error{ErrZeroDemand, ErrDuplicate, ErrUnknownIf, ErrBelowMinimum} {
			if errors.Is(em, sentinel) != errors.Is(en, sentinel) {
				t.Fatalf("%s: divergent error class: memoized=%v naive=%v", opName, em, en)
			}
		}
		if (em == nil) != (en == nil) {
			t.Fatalf("%s: divergent accept/reject: memoized=%v naive=%v", opName, em, en)
		}
	}
	// drift bounds the naive implementation's divergence: each grant may
	// differ by one ulp-truncation, and once the free-capacity term binds,
	// earlier differences feed back through allocEg — so the allowed
	// per-grant divergence is the accumulated drift plus one.
	var drift uint64
	checkGrants := func(opName string, gm, gn uint64) {
		dn := max(gm, gn) - min(gm, gn)
		if dn > drift+1 {
			t.Fatalf("%s: naive grant %d vs memoized %d (Δ %d > drift bound %d)",
				opName, gn, gm, dn, drift+1)
		}
		drift += dn
	}

	mkReq := func(sel, p0, p1 byte) Request {
		r := req(nextNum, ia(1, topology.ASID(10+sel%8)),
			topology.IfID(sel%2+1), 3, 0, uint64(1+uint64(p0)|uint64(p1)<<8)*37)
		nextNum++
		return r
	}
	// Lifetime 4..227 s from now, as the epoch it ends in.
	endEpoch := func(p0 byte) int64 {
		expT := uint64(now) + equivEpochSec + uint64(p0)%224
		return int64((expT + equivEpochSec - 1) / equivEpochSec)
	}

	ops := 0
	for i := 0; i+4 <= len(data) && ops < 400; i, ops = i+4, ops+1 {
		code, sel, p0, p1 := data[i], data[i+1], data[i+2], data[i+3]
		switch code % 6 {
		case 0, 1: // admit
			if len(live) >= 128 {
				continue
			}
			expire()
			r := mkReq(sel, p0, p1)
			gm, em := mem.AdmitSegR(r)
			gn, en := nai.AdmitSegR(r)
			checkErrs("admit", em, en)
			if em == nil {
				checkGrants("admit", gm, gn)
				seq++
				live = append(live, equivLive{req: r, endEpoch: endEpoch(p0), seq: seq})
			}
		case 2: // renew
			if len(live) == 0 {
				continue
			}
			expire()
			if len(live) == 0 {
				continue
			}
			k := int(sel) % len(live)
			r := live[k].req
			r.MaxKbps = uint64(1+uint64(p0)|uint64(p1)<<8) * 37
			gm, em := mem.RenewSegR(r)
			gn, en := nai.RenewSegR(r)
			checkErrs("renew", em, en)
			if em == nil {
				checkGrants("renew", gm, gn)
				seq++
				live[k] = equivLive{req: r, endEpoch: endEpoch(p0), seq: seq}
			}
		case 3: // release
			if len(live) == 0 {
				continue
			}
			expire()
			if len(live) == 0 {
				continue
			}
			k := int(sel) % len(live)
			id := live[k].req.ID
			mem.Release(id)
			nai.Release(id)
			live = append(live[:k], live[k+1:]...)
		case 4: // advance time
			now += 1 + uint32(sel)%32
		case 5: // tube-cap change (0 exercises the zero-grant path)
			in := topology.IfID(sel%2 + 1)
			capKbps := uint64(p0%4) * 9_000
			mem.SetTubeCapKbps(in, 3, capKbps)
			nai.SetTubeCapKbps(in, 3, capKbps)
		}
	}
	expire()
	if lm, ln := mem.Len(), nai.Len(); lm != ln || lm != len(live) {
		t.Fatalf("final Len: memoized %d, naive %d, harness %d", lm, ln, len(live))
	}
	an, am := nai.AllocatedKbps(3), mem.AllocatedKbps(3)
	tol := int64(drift) + 1
	if d := int64(an) - int64(am); d < -tol || d > tol {
		t.Fatalf("final AllocatedKbps: naive %d vs memoized %d beyond ±%d", an, am, tol)
	}
}
