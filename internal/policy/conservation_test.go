package policy

import (
	"fmt"
	"testing"

	"colibri/internal/reservation"
)

// The conservation property test: whatever a reservation model does —
// setups, renewals, teardowns, lazy expiry, source crashes with retried
// setups — no AS may ever be charged beyond what it granted, at any epoch.
// Two invariants are checked after every step of a pseudo-random op tape,
// for every policy × every Admitter backend × sharded and unsharded
// engines:
//
//  1. dynamic: each tube SegR's peak ledger demand over the whole audit
//     horizon (including Hummingbird's advance-booked future slices) never
//     exceeds the tube's granted bandwidth;
//  2. static: the tube grants an AS hands out per egress never exceed the
//     EER share of the link capacity under the traffic split.
//
// The crash op is the PR 8 leak class: the source forgets its record while
// the per-hop charges survive, then retries the setup — the hops must dedup
// (restree.ErrExists), not double-charge.

// consHarness drives one policy through a deterministic LCG op tape.
type consHarness struct {
	t     *testing.T
	p     Policy
	sub   *substrate
	now   uint32
	life  uint32
	path  []Hop
	capKb uint64
	state uint64
	live  []uint32
	seq   uint32
}

// substrateOf reaches the shared engine layer of any built-in model.
func substrateOf(p Policy) *substrate {
	switch v := p.(type) {
	case *BoundedTube:
		return v.substrate
	case *Flyover:
		return v.substrate
	case *Hummingbird:
		return v.substrate
	}
	return nil
}

// forgetter is the crash seam every built-in model implements.
type forgetter interface{ forget(reservation.ID) }

func (h *consHarness) next() uint64 {
	h.state = h.state*6364136223846793005 + 1442695040888963407
	return h.state >> 33
}

// check asserts both conservation invariants right now.
func (h *consHarness) check(step int) {
	h.t.Helper()
	for _, a := range h.p.Audit(h.now, h.now+256) {
		var granted uint64
		for _, s := range a.Segs {
			if s.PeakKbps > s.GrantKbps {
				h.t.Fatalf("step %d t=%d: AS %s seg %s charged %d kbps over its %d kbps grant",
					step, h.now, a.IA, s.Seg, s.PeakKbps, s.GrantKbps)
			}
			granted += s.GrantKbps
		}
		share := h.sub.split.EERShare(h.capKb)
		if granted > share {
			h.t.Fatalf("step %d t=%d: AS %s granted %d kbps of tubes over its %d kbps EER share",
				step, h.now, a.IA, granted, share)
		}
	}
}

func (h *consHarness) step(i int) {
	op := h.next()
	switch op % 16 {
	case 0, 1, 2, 3: // setup a fresh flow, varied demand
		h.seq++
		bw := 500 * (1 + op>>8%6)
		if _, err := h.p.Setup(flowID(h.seq), h.path, bw); err == nil {
			h.live = append(h.live, h.seq)
		}
	case 4, 5, 6: // renew one live flow (early, on-time or late — all legal here)
		if len(h.live) > 0 {
			h.p.Renew(flowID(h.live[int(op>>8)%len(h.live)]))
		}
	case 7: // batched renewal wave over every live flow
		if len(h.live) > 0 {
			ids := make([]reservation.ID, len(h.live))
			for j, n := range h.live {
				ids[j] = flowID(n)
			}
			h.p.RenewWave(ids, make([]uint64, len(ids)), make([]error, len(ids)))
		}
	case 8, 9: // teardown one live flow
		if len(h.live) > 0 {
			j := int(op>>8) % len(h.live)
			h.p.Teardown(flowID(h.live[j]))
			h.live = append(h.live[:j], h.live[j+1:]...)
		}
	case 10, 11, 12: // advance the clock, sometimes with lazy expiry
		h.now += uint32(1 + op>>8%8)
		if op>>16&1 == 1 {
			h.p.Tick()
			// Flows the policy pruned are dead to the harness too.
			kept := h.live[:0]
			for _, n := range h.live {
				if _, err := h.p.Renew(flowID(n)); err != ErrUnknownFlow {
					kept = append(kept, n)
				}
			}
			h.live = kept
		}
	case 13, 14: // crash: the source forgets a flow, then retries the setup
		if len(h.live) > 0 {
			n := h.live[int(op>>8)%len(h.live)]
			h.p.(forgetter).forget(flowID(n))
			if _, err := h.p.Setup(flowID(n), h.path, 500*(1+op>>16%6)); err != nil {
				// The retry was refused (e.g. surviving charges at a full
				// hop under a different demand): the flow is gone.
				j := -1
				for k, v := range h.live {
					if v == n {
						j = k
					}
				}
				h.live = append(h.live[:j], h.live[j+1:]...)
			}
		}
	case 15: // idle epoch
		h.now += 1
	}
	h.check(i)
}

// TestConservation runs the op tape against every policy × unsharded and
// sharded engines (each over the memoized SegR admitter, the only one).
func TestConservation(t *testing.T) {
	for _, name := range Names() {
		for _, shards := range []int{1, 4} {
			name, shards := name, shards
			t.Run(fmt.Sprintf("%s/memoized/shards=%d", name, shards), func(t *testing.T) {
				const capKb = 40_000 // 30 Mbps EER share per link
				ases, path := chainTopo(t, 3, capKb)
				h := &consHarness{
					t: t, now: 1_000, life: 8, path: path, capKb: capKb,
					state: 0x9E3779B97F4A7C15 ^ uint64(shards),
				}
				p, err := New(name, Config{
					ASes:        ases,
					Shards:      shards,
					Stripes:     2 * shards,
					LifetimeSec: h.life,
					Clock:       func() uint32 { return h.now },
				})
				if err != nil {
					t.Fatal(err)
				}
				h.p, h.sub = p, substrateOf(p)
				if h.sub == nil {
					t.Fatalf("no substrate for %s", name)
				}
				// Provision most of the EER share so the tape actually
				// hits refusals, partial grants and recovery.
				if err := p.Provision(path, 24_000); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 250; i++ {
					h.step(i)
				}
				// Drain: teardown everything, expire the rest, audit zero.
				for _, n := range h.live {
					p.Teardown(flowID(n))
				}
				h.now += 4 * h.life
				p.Tick()
				for _, a := range p.Audit(h.now, h.now+256) {
					for _, s := range a.Segs {
						if s.PeakKbps != 0 || s.LiveEERs != 0 {
							t.Fatalf("drain: AS %s seg %s still charged: %+v", a.IA, s.Seg, s)
						}
					}
				}
			})
		}
	}
}
