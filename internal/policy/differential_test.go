package policy

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"colibri/internal/cserv"
)

// The cross-policy differential harness. The three reservation models are
// genuinely different protocols, but over the OVERLAP REGION their
// admit/refuse decisions must be identical:
//
//   - single-hop paths (no cross-hop atomicity to differ on),
//   - one tube stripe (no striping spread),
//   - the same lifetime L for every model, with every op timestamp and L
//     aligned to the coarsest epoch (4 s) so the conservative floor/ceil
//     widening quantizes the same real windows under 4 s (bounded-tube,
//     flyover) and 1 s (hummingbird) epochs alike,
//   - quantized demand: the tube grant is slots×B and every flow asks for
//     exactly B, so bounded-tube's min(request, free) renewal grant is
//     full-or-zero like the other models' windowed setups,
//   - renewals issued only at or after expiry (early renewal is exactly
//     where the models legitimately diverge: in-place replacement vs
//     overlap double-charge vs advance booking — pinned by the unit tests
//     in policy_test.go), and a refused renewal kills the flow.
//
// Within that region a bounded-tube renewal (old charge lapsed, fresh probe
// of [now, now+L)), a flyover renewal (fresh setup anchored at now) and a
// hummingbird renewal (next slice anchored at max(endT, now) = now) compute
// over byte-identical ledger windows, so every decision, every grant, the
// surviving flow set and the final conservation audit must agree.

// diffB is the demand quantum every overlap-region flow requests.
const diffB = 1_000

// diffHarness drives the three models in lockstep over one op tape.
type diffHarness struct {
	t    testing.TB
	pols []Policy
	now  uint32
	life uint32
	seq  uint32
	live []uint32          // admitted flow nums, insertion order
	expT map[uint32]uint32 // per live flow
}

// newDiffHarness builds the three models over identical single-hop
// topologies (each model owns its engines) with a shared manual clock.
func newDiffHarness(t testing.TB, shards, slots int, life uint32) *diffHarness {
	h := &diffHarness{t: t, now: 1_000, life: life, expT: make(map[uint32]uint32)}
	demand := uint64(slots) * diffB
	for _, name := range Names() {
		// Links far above the tube demand: the tube grant is the binding
		// constraint whatever the per-shard capacity split deals out.
		ases, path := chainTopo(t, 1, demand*16)
		p, err := New(name, Config{
			ASes:        ases,
			Shards:      shards,
			Stripes:     1,
			LifetimeSec: life,
			Clock:       func() uint32 { return h.now },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Provision(path, demand); err != nil {
			t.Fatal(err)
		}
		h.pols = append(h.pols, p)
	}
	return h
}

// path rebuilds the single-hop path value (identical for every model).
func (h *diffHarness) path() []Hop {
	return []Hop{{IA: ia(1, 2), In: 1, Eg: 2}}
}

// errClass folds an error to its decision class; unexpected errors keep
// their message so a divergence names the culprit.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrFlowExists):
		return "dup"
	case errors.Is(err, ErrUnknownFlow):
		return "unknown"
	case errors.Is(err, cserv.ErrInsufficient):
		return "insufficient"
	default:
		return "other:" + err.Error()
	}
}

// agree asserts one op's (grant, error-class) decisions match across the
// models and returns the shared decision.
func (h *diffHarness) agree(op string, grants []uint64, errs []error) (uint64, string) {
	for i := 1; i < len(h.pols); i++ {
		if grants[i] != grants[0] || errClass(errs[i]) != errClass(errs[0]) {
			h.t.Fatalf("t=%d %s: %s decided (%d, %s) but %s decided (%d, %s)",
				h.now, op,
				h.pols[0].Name(), grants[0], errClass(errs[0]),
				h.pols[i].Name(), grants[i], errClass(errs[i]))
		}
	}
	return grants[0], errClass(errs[0])
}

// setup admits one fresh flow on every model and records it if admitted.
func (h *diffHarness) setup() {
	h.seq++
	num := h.seq
	grants := make([]uint64, len(h.pols))
	errs := make([]error, len(h.pols))
	for i, p := range h.pols {
		grants[i], errs[i] = p.Setup(flowID(num), h.path(), diffB)
	}
	if _, cls := h.agree(fmt.Sprintf("setup(%d)", num), grants, errs); cls == "ok" {
		h.live = append(h.live, num)
		h.expT[num] = h.now + h.life
	}
}

// renewable lists flows at or past expiry, in flow order.
func (h *diffHarness) renewable() []uint32 {
	var out []uint32
	for _, n := range h.live {
		if h.expT[n] <= h.now {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// renew renews one at-or-past-expiry flow; a refused renewal kills the flow
// (it has lapsed everywhere — the policies prune it on their next Tick).
func (h *diffHarness) renew(sel int) {
	cands := h.renewable()
	if len(cands) == 0 {
		return
	}
	num := cands[sel%len(cands)]
	grants := make([]uint64, len(h.pols))
	errs := make([]error, len(h.pols))
	for i, p := range h.pols {
		grants[i], errs[i] = p.Renew(flowID(num))
	}
	if _, cls := h.agree(fmt.Sprintf("renew(%d)", num), grants, errs); cls == "ok" {
		h.expT[num] = h.now + h.life
	} else {
		h.drop(num)
	}
}

// teardown releases one live flow on every model.
func (h *diffHarness) teardown(sel int) {
	if len(h.live) == 0 {
		return
	}
	num := h.live[sel%len(h.live)]
	for _, p := range h.pols {
		p.Teardown(flowID(num))
	}
	h.drop(num)
}

// drop forgets a flow in the harness bookkeeping.
func (h *diffHarness) drop(num uint32) {
	for i, n := range h.live {
		if n == num {
			h.live = append(h.live[:i], h.live[i+1:]...)
			break
		}
	}
	delete(h.expT, num)
}

// advance moves the shared clock forward by whole coarse epochs.
func (h *diffHarness) advance(sel int) {
	h.now += 4 * uint32(1+sel%4)
}

// tick runs lazy expiry on every model and asserts the surviving flow sets
// agree; the harness drops flows that lapsed unrenewed.
func (h *diffHarness) tick() {
	flows := make([]int, len(h.pols))
	for i, p := range h.pols {
		p.Tick()
		flows[i] = p.Counts().Flows
	}
	for i := 1; i < len(h.pols); i++ {
		if flows[i] != flows[0] {
			h.t.Fatalf("t=%d tick: %s keeps %d flows but %s keeps %d",
				h.now, h.pols[0].Name(), flows[0], h.pols[i].Name(), flows[i])
		}
	}
	for _, n := range append([]uint32(nil), h.live...) {
		if h.expT[n] <= h.now {
			h.drop(n)
		}
	}
}

// finish cross-checks the end state: surviving flows and the full
// conservation audit (per-tube grants, peak demand, live records) must be
// byte-identical across the models.
func (h *diffHarness) finish() {
	h.tick()
	if got := h.pols[0].Counts().Flows; got != len(h.live) {
		h.t.Fatalf("t=%d finish: harness tracks %d flows, policies keep %d",
			h.now, len(h.live), got)
	}
	ref := h.pols[0].Audit(h.now, h.now+2*h.life)
	for i := 1; i < len(h.pols); i++ {
		aud := h.pols[i].Audit(h.now, h.now+2*h.life)
		if !reflect.DeepEqual(aud, ref) {
			h.t.Fatalf("t=%d finish: audit diverges:\n%s: %+v\n%s: %+v",
				h.now, h.pols[0].Name(), ref, h.pols[i].Name(), aud)
		}
	}
}

// runPolicyDiff decodes one fuzz tape and drives the harness. Layout:
// header [shardsSel, slotsSel, lifeSel, _], then 4-byte op groups
// [code, sel, _, _].
func runPolicyDiff(t testing.TB, data []byte) {
	if len(data) < 8 {
		return
	}
	shards := []int{1, 2, 4}[int(data[0])%3]
	slots := 1 + int(data[1])%8
	life := []uint32{4, 8, 16}[int(data[2])%3]
	h := newDiffHarness(t, shards, slots, life)
	ops := data[4:]
	if len(ops) > 1024 {
		ops = ops[:1024]
	}
	for i := 0; i+4 <= len(ops); i += 4 {
		code, sel := ops[i], int(ops[i+1])
		switch code % 8 {
		case 0, 1, 2:
			h.setup()
		case 3, 4:
			h.renew(sel)
		case 5:
			h.teardown(sel)
		case 6:
			h.advance(sel)
		case 7:
			h.tick()
		}
	}
	h.finish()
}

// TestPolicyDifferentialScenarios pins hand-written overlap-region
// scenarios: capacity exhaustion, boundary renewal, renewal-vs-setup
// contention at the boundary, teardown-then-reuse, and lapse-without-renew.
func TestPolicyDifferentialScenarios(t *testing.T) {
	t.Run("exhaust-then-refill", func(t *testing.T) {
		h := newDiffHarness(t, 1, 3, 8)
		for i := 0; i < 5; i++ { // 3 admitted, 2 refused
			h.setup()
		}
		if len(h.live) != 3 {
			t.Fatalf("live = %d, want 3 (tube holds 3 slots)", len(h.live))
		}
		h.teardown(0)
		h.setup() // freed slot is admitted again
		if len(h.live) != 3 {
			t.Fatalf("live after refill = %d, want 3", len(h.live))
		}
		h.finish()
	})
	t.Run("boundary-renewal", func(t *testing.T) {
		h := newDiffHarness(t, 1, 2, 8)
		h.setup()
		h.setup()
		h.advance(1) // +8 s: both at their expiry boundary
		h.renew(0)
		h.renew(0)
		if len(h.renewable()) != 0 {
			t.Fatalf("flows still renewable after boundary renewals")
		}
		h.finish()
	})
	t.Run("boundary-contention", func(t *testing.T) {
		h := newDiffHarness(t, 1, 1, 4)
		h.setup()
		h.advance(0) // +4 s: the slot's window has lapsed
		h.setup()    // a competing setup lands first…
		h.renew(0)   // …so the incumbent's renewal is refused — in EVERY model
		if len(h.live) != 1 {
			t.Fatalf("live = %d, want 1 (the thief)", len(h.live))
		}
		h.finish()
	})
	t.Run("lapse-without-renew", func(t *testing.T) {
		h := newDiffHarness(t, 2, 4, 4)
		for i := 0; i < 4; i++ {
			h.setup()
		}
		h.advance(1)
		h.tick() // all lapsed
		if len(h.live) != 0 {
			t.Fatalf("live = %d, want 0", len(h.live))
		}
		h.setup() // capacity fully recovered
		if len(h.live) != 1 {
			t.Fatalf("fresh setup refused after full lapse")
		}
		h.finish()
	})
	t.Run("late-renewal", func(t *testing.T) {
		h := newDiffHarness(t, 1, 2, 4)
		h.setup()
		h.advance(2) // +12 s: way past expiry, no Tick — records linger
		h.renew(0)   // late renewal re-anchors at now in every model
		if len(h.renewable()) != 0 {
			t.Fatalf("flow still renewable after late renewal")
		}
		h.finish()
	})
}
