package policy

import (
	"errors"
	"testing"

	"colibri/internal/cserv"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

func ia(isd topology.ISD, as topology.ASID) topology.IA { return topology.MustIA(isd, as) }

// chainTopo builds a linear path of `hops` on-path ASes, every link capKbps.
// On-path AS i has interface 1 toward the upstream neighbor and interface 2
// toward the downstream one; the path enters at 1 and leaves at 2.
func chainTopo(t testing.TB, hops int, capKbps uint64) ([]*topology.AS, []Hop) {
	t.Helper()
	topo := topology.New()
	// ASes 1..hops are on-path; 0 (source side) and hops+1 (sink side) are
	// the stub neighbors terminating the first and last links.
	for i := 0; i <= hops+1; i++ {
		topo.AddAS(ia(1, topology.ASID(i+1)), true)
	}
	for i := 0; i <= hops; i++ {
		topo.MustConnect(ia(1, topology.ASID(i+1)), 2, ia(1, topology.ASID(i+2)), 1,
			topology.LinkCore, topology.LinkSpec{CapacityKbps: capKbps})
	}
	ases := make([]*topology.AS, hops)
	path := make([]Hop, hops)
	for i := 0; i < hops; i++ {
		a := topo.AS(ia(1, topology.ASID(i+2)))
		ases[i] = a
		path[i] = Hop{IA: a.IA, In: 1, Eg: 2}
	}
	return ases, path
}

// flowID numbers a test flow from the source AS.
func flowID(n uint32) reservation.ID {
	return reservation.ID{SrcAS: topology.MustIA(1, 99), Num: n}
}

// peakAt returns the summed PeakKbps over all tube SegRs of one AS.
func peakAt(aud []ASAudit, ia topology.IA) uint64 {
	var total uint64
	for _, a := range aud {
		if a.IA != ia {
			continue
		}
		for _, s := range a.Segs {
			total += s.PeakKbps
		}
	}
	return total
}

// newPolicy builds the named model over the chain with a manual clock.
func newPolicy(t testing.TB, name string, ases []*topology.AS, life uint32, now *uint32) Policy {
	t.Helper()
	p, err := New(name, Config{
		ASes:        ases,
		LifetimeSec: life,
		Clock:       func() uint32 { return *now },
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBoundedTubeSetupRollback: an end-to-end refusal releases the hops
// admitted before the refusing one.
func TestBoundedTubeSetupRollback(t *testing.T) {
	ases, path := chainTopo(t, 2, 16_000) // 12 Mbps reservable per hop
	now := uint32(1_000)
	p := newPolicy(t, NameBoundedTube, ases, 16, &now)
	// Hop 2's tube is provisioned far smaller than hop 1's.
	if err := p.Provision(path[:1], 12_000); err != nil {
		t.Fatal(err)
	}
	if err := p.Provision(path[1:], 500); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Setup(flowID(1), path, 1_000); !errors.Is(err, cserv.ErrInsufficient) {
		t.Fatalf("setup err = %v, want ErrInsufficient", err)
	}
	aud := p.Audit(now, now+64)
	if got := peakAt(aud, path[0].IA); got != 0 {
		t.Errorf("hop 1 still charged %d kbps after rollback", got)
	}
	if ct := p.Counts(); ct.Flows != 0 || ct.Refusals != 1 {
		t.Errorf("counts = %+v, want 0 flows / 1 refusal", ct)
	}
}

// TestFlyoverPartialSetupLeavesHopsCharged: hop-local semantics have no
// rollback — the admitted hop keeps its flyover until the short lifetime
// lapses.
func TestFlyoverPartialSetupLeavesHopsCharged(t *testing.T) {
	ases, path := chainTopo(t, 2, 16_000)
	now := uint32(1_000)
	p := newPolicy(t, NameFlyover, ases, 4, &now)
	if err := p.Provision(path[:1], 12_000); err != nil {
		t.Fatal(err)
	}
	if err := p.Provision(path[1:], 500); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Setup(flowID(1), path, 1_000); !errors.Is(err, cserv.ErrInsufficient) {
		t.Fatalf("setup err = %v, want ErrInsufficient", err)
	}
	if got := peakAt(p.Audit(now, now+4), path[0].IA); got != 1_000 {
		t.Errorf("hop 1 charge = %d, want the stray flyover's 1000 kbps", got)
	}
	// The stray flyover lapses with its lifetime; nothing leaks.
	now += 8
	p.Tick()
	if got := peakAt(p.Audit(now, now+4), path[0].IA); got != 0 {
		t.Errorf("hop 1 charge after expiry = %d, want 0", got)
	}
}

// TestRenewalProtection is the §5.3 story head-to-head on a one-slot hop.
// Bounded-tube renews EARLY with in-place replacement: the old charge is
// released and the slot re-booked [now, now+life) while the flow still holds
// it, so an attacker probing at the old expiry finds the window taken.
// Flyover cannot renew early on a full hop (see the double-charge test
// below), so its renewal waits for the boundary — where a competing setup
// that lands first steals the freed slot.
func TestRenewalProtection(t *testing.T) {
	t.Run(NameBoundedTube, func(t *testing.T) {
		// 1 slot: 1334 kbps link => 1000 kbps reservable (75%).
		ases, path := chainTopo(t, 1, 1_334)
		now := uint32(1_000)
		p := newPolicy(t, NameBoundedTube, ases, 4, &now)
		if err := p.Provision(path, 1_000); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Setup(flowID(1), path, 1_000); err != nil {
			t.Fatal(err)
		}
		now += 2 // renew with 2 s lead: replacement covers [1002, 1006)
		if _, err := p.Renew(flowID(1)); err != nil {
			t.Fatalf("early renew refused: %v", err)
		}
		now += 2 // the old expiry instant: attacker probes [1004, 1008)
		if _, err := p.Setup(flowID(2), path, 1_000); !errors.Is(err, cserv.ErrInsufficient) {
			t.Errorf("attacker err = %v, want ErrInsufficient (incumbent kept its slot)", err)
		}
	})
	t.Run(NameFlyover, func(t *testing.T) {
		ases, path := chainTopo(t, 1, 1_334)
		now := uint32(1_000)
		p := newPolicy(t, NameFlyover, ases, 4, &now)
		if err := p.Provision(path, 1_000); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Setup(flowID(1), path, 1_000); err != nil {
			t.Fatal(err)
		}
		// At the boundary the attacker's setup lands first and wins.
		now += 4
		_, attErr := p.Setup(flowID(2), path, 1_000)
		_, renErr := p.Renew(flowID(1))
		if attErr != nil || !errors.Is(renErr, cserv.ErrInsufficient) {
			t.Errorf("attacker err = %v, renew err = %v; want attacker stole the slot", attErr, renErr)
		}
	})
}

// TestHummingbirdEarlyRenewBooksAhead: renewing before the slice lapses
// anchors the next slice at the current one's END, so a competitor probing
// that window finds it taken — the model's answer to the flyover race.
func TestHummingbirdEarlyRenewBooksAhead(t *testing.T) {
	ases, path := chainTopo(t, 1, 1_334)
	now := uint32(1_000)
	p := newPolicy(t, NameHummingbird, ases, 4, &now)
	if err := p.Provision(path, 1_000); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Setup(flowID(1), path, 1_000); err != nil {
		t.Fatal(err)
	}
	// Renew two seconds early: slice 1 covers [1004, 1008) from now on.
	now += 2
	if _, err := p.Renew(flowID(1)); err != nil {
		t.Fatal(err)
	}
	now += 2
	if _, err := p.Setup(flowID(2), path, 1_000); !errors.Is(err, cserv.ErrInsufficient) {
		t.Errorf("competitor err = %v, want ErrInsufficient (window booked ahead)", err)
	}
	// The slices concatenate without double-charging the handover epoch.
	if got := peakAt(p.Audit(1_000, 1_008), path[0].IA); got != 1_000 {
		t.Errorf("peak over both slices = %d, want 1000 (seamless handover)", got)
	}
}

// TestFlyoverEarlyRenewDoubleCharges: the contrast case — a flyover renewal
// is a fresh setup anchored at now, so renewing early needs the overlap
// window twice and a full hop refuses it.
func TestFlyoverEarlyRenewDoubleCharges(t *testing.T) {
	ases, path := chainTopo(t, 1, 1_334)
	now := uint32(1_000)
	p := newPolicy(t, NameFlyover, ases, 4, &now)
	if err := p.Provision(path, 1_000); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Setup(flowID(1), path, 1_000); err != nil {
		t.Fatal(err)
	}
	now += 2
	if _, err := p.Renew(flowID(1)); !errors.Is(err, cserv.ErrInsufficient) {
		t.Errorf("early renew err = %v, want ErrInsufficient (overlap double-charge)", err)
	}
}

// TestRenewWaveMatchesRenew: bounded-tube's shard-major batched wave gives
// per-flow outcomes identical to sequential Renew calls.
func TestRenewWaveMatchesRenew(t *testing.T) {
	const flows = 64
	build := func(shards int) (Policy, *uint32) {
		// Generous links: per-shard capacity splits must not starve any
		// stripe whatever the SegR-to-shard hash deals out.
		ases, path := chainTopo(t, 3, 2_000_000)
		now := new(uint32)
		*now = 1_000
		p, err := New(NameBoundedTube, Config{
			ASes: ases, Shards: shards, Stripes: 8, LifetimeSec: 16,
			Clock: func() uint32 { return *now },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Provision(path, 120_000); err != nil {
			t.Fatal(err)
		}
		for i := uint32(0); i < flows; i++ {
			if _, err := p.Setup(flowID(i), path, 1_000); err != nil {
				t.Fatalf("setup %d: %v", i, err)
			}
		}
		return p, now
	}
	seq, seqNow := build(4)
	bat, batNow := build(4)
	ids := make([]reservation.ID, flows)
	for i := range ids {
		ids[i] = flowID(uint32(i))
	}
	grants := make([]uint64, flows)
	errs := make([]error, flows)
	for w := 0; w < 3; w++ {
		*seqNow += 4
		*batNow += 4
		bat.RenewWave(ids, grants, errs)
		for i, id := range ids {
			g, err := seq.Renew(id)
			if g != grants[i] || (err == nil) != (errs[i] == nil) {
				t.Fatalf("wave %d flow %d: batch (%d, %v) != sequential (%d, %v)",
					w, i, grants[i], errs[i], g, err)
			}
		}
	}
	sc, bc := seq.Counts(), bat.Counts()
	if sc.Renews != bc.Renews || sc.Refusals != bc.Refusals || sc.Flows != bc.Flows {
		t.Errorf("counts diverge: sequential %+v vs batched %+v", sc, bc)
	}
}

// TestTeardownDrainsEngines: after teardown every model leaves zero EER
// records behind on every engine.
func TestTeardownDrainsEngines(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			ases, path := chainTopo(t, 2, 16_000)
			now := uint32(1_000)
			p := newPolicy(t, name, ases, 4, &now)
			if err := p.Provision(path, 12_000); err != nil {
				t.Fatal(err)
			}
			for i := uint32(0); i < 5; i++ {
				if _, err := p.Setup(flowID(i), path, 1_000); err != nil {
					t.Fatal(err)
				}
			}
			now += 4
			for i := uint32(0); i < 5; i++ {
				if _, err := p.Renew(flowID(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := uint32(0); i < 5; i++ {
				p.Teardown(flowID(i))
			}
			now += 16
			p.Tick()
			ct := p.Counts()
			if ct.Engine.EERs != 0 || ct.Flows != 0 {
				t.Errorf("%s: engines not drained: %+v", name, ct)
			}
			for _, a := range p.Audit(now, now+64) {
				for _, s := range a.Segs {
					if s.PeakKbps != 0 || s.LiveEERs != 0 {
						t.Errorf("%s: %s seg %s still charged: %+v", name, a.IA, s.Seg, s)
					}
				}
			}
		})
	}
}
