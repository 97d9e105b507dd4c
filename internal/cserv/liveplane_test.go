package cserv

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// cpFabric builds a TwoISD fabric whose CServs run a CPlane of the given shard
// count.
func cpFabric(t testing.TB, shards int, mutate func(ia topology.IA, cfg *Config)) *fabric {
	return twoISDFabric(t, func(iaKey topology.IA, cfg *Config) {
		cfg.CPlaneShards = shards
		if mutate != nil {
			mutate(iaKey, cfg)
		}
	})
}

// liveOutcome is one decision of the golden log: granted or refused, and how
// much.
type liveOutcome struct {
	ok bool
	bw uint64
}

// liveGolden is the decision log of TestCPlaneLiveDifferential's operation
// sequence as the single-store handlers answered it (reservation.Store's
// max-over-versions accounting behind one admitter) at commit fd38c18, the
// last one to carry them: ten 8 Mbps setups against 50 Mbps SegRs — six fit,
// four are refused — then three keep-alive waves over the six admitted.
var liveGolden = []liveOutcome{
	{true, 8000}, {true, 8000}, {true, 8000}, {true, 8000}, {true, 8000}, {true, 8000}, {false, 0}, {false, 0}, {false, 0}, {false, 0},
	{true, 2000}, {true, 8000}, {true, 8000}, {true, 8000}, {true, 8000}, {true, 8000},
	{true, 2000}, {true, 8000}, {true, 8000}, {true, 8000}, {true, 8000}, {true, 8000},
	{true, 2000}, {true, 8000}, {true, 8000}, {true, 8000}, {true, 8000}, {true, 8000},
}

// TestCPlaneLiveDifferential replays one operation sequence — EER setups up
// to oversubscription, then constant-bandwidth renewal waves — at one shard
// and at four, and demands the per-operation decisions of liveGolden: same
// grants, same refusals. The store charged the max over versions (a
// same-bandwidth renewal has delta zero) and the CPlane replaces the version,
// so the two models agree on this sequence exactly.
func TestCPlaneLiveDifferential(t *testing.T) {
	// The log exercises all three decision kinds: full grants (the six fitting
	// setups, and renewals — the transfer split credits the replaced version's
	// charge, so a keep-alive at the same bandwidth always fits), refusals (the
	// four oversubscribed setups), and partial renewal grants: the first
	// renewal wave lands while the split still carries the whole wave's
	// pre-renewal demand, so its first renewal is fair-share capped to the
	// remaining 2 Mbps (§4.2) and that flow keeps renewing at the shrunk
	// bandwidth in the later waves — 3 partials in 24 admissions.
	admitted, partial := 0, 0
	for _, o := range liveGolden {
		if o.ok {
			admitted++
		}
		if o.ok && o.bw != 0 && o.bw != 8_000 {
			partial++
		}
	}
	if admitted != 24 || partial != 3 {
		t.Fatalf("golden log: admitted %d of %d operations (%d partial), want 24 (3 partial)", admitted, len(liveGolden), partial)
	}
	for _, shards := range []int{1, 4} {
		f := cpFabric(t, shards, nil)
		f.setupAllSegRs(t, 50_000)
		src := f.services[ia(1, 11)]
		var log []liveOutcome
		var grants []*EERGrant
		for i := uint32(0); i < 10; i++ {
			g, err := src.RequestEER(100+i, 200+i, ia(2, 11), 8_000)
			log = append(log, liveOutcome{err == nil, grantBw(g)})
			if err == nil {
				grants = append(grants, g)
			}
		}
		// Three keep-alive waves at the same bandwidth, one second apart
		// (the per-EER renewal throttle allows one per second).
		for wave := 0; wave < 3; wave++ {
			f.clock.Store(t0 + 1 + uint32(wave))
			for i, g := range grants {
				ng, err := src.RenewEER(g, uint64(g.Res.BwKbps))
				log = append(log, liveOutcome{err == nil, grantBw(ng)})
				if err == nil {
					grants[i] = ng
				}
			}
		}
		if !slices.Equal(log, liveGolden) {
			t.Errorf("%d shards: decisions diverge from the golden log:\n got %v\nwant %v", shards, log, liveGolden)
		}
	}
}

func grantBw(g *EERGrant) uint64 {
	if g == nil {
		return 0
	}
	return uint64(g.Res.BwKbps)
}

// TestCPlaneLiveNoOverAdmission drives a multi-shard CPlane fabric into
// oversubscription and checks the aggregate invariant: at every AS, the
// maximum EER demand charged to a SegR never exceeds the SegR's own active
// bandwidth, even though the capacity is split across shards.
func TestCPlaneLiveNoOverAdmission(t *testing.T) {
	f := cpFabric(t, 4, nil)
	up, core, down := f.setupAllSegRs(t, 50_000)
	src := f.services[ia(1, 11)]
	admitted := 0
	for i := uint32(0); i < 40; i++ {
		if _, err := src.RequestEER(100+i, 200+i, ia(2, 11), 3_000); err == nil {
			admitted++
		}
	}
	if admitted == 0 || admitted > 16 {
		t.Fatalf("admitted %d 3 Mbps EERs against 50 Mbps SegRs", admitted)
	}
	for _, iaKey := range f.topo.SortedIAs() {
		svc := f.services[iaKey]
		for _, segr := range []*reservation.SegR{up, core, down} {
			m, ok := svc.CPlane().SegDemandMax(segr.ID)
			if !ok {
				continue // this AS is not on that SegR's path
			}
			if m > segr.Active.BwKbps {
				t.Errorf("AS %s over-admitted SegR %s: demand %d > active %d",
					iaKey, segr.ID, m, segr.Active.BwKbps)
			}
		}
	}
}

// TestEEBatchRenewWire round-trips the batch request and response encodings.
func TestEEBatchRenewWire(t *testing.T) {
	req := &EEBatchRenewReq{
		SegIDs: []reservation.ID{{SrcAS: ia(1, 11), Num: 7}, {SrcAS: ia(1, 1), Num: 9}},
		Splits: []uint8{2},
		Path: []PathHop{
			{IA: ia(1, 11), In: 0, Eg: 1}, {IA: ia(1, 2), In: 2, Eg: 3}, {IA: ia(1, 1), In: 4, Eg: 0},
		},
		Items: []EEBatchItem{
			{ID: reservation.ID{SrcAS: ia(1, 11), Num: 100}, Ver: 3, BwKbps: 8_000, ExpT: t0 + 16, SrcHost: 1, DstHost: 2},
			{ID: reservation.ID{SrcAS: ia(1, 11), Num: 101}, Ver: 2, BwKbps: 4_000, ExpT: t0 + 16, SrcHost: 3, DstHost: 4},
		},
		Macs:   make([][16]byte, 3),
		Accums: []uint64{8_000, 4_000},
		Status: []uint8{EEItemOK, EEItemThrottled},
	}
	req.Macs[1][0] = 0xab
	got, err := UnmarshalEEBatchRenewReq(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), req.Marshal()) {
		t.Fatalf("request round-trip mismatch:\n%+v\n%+v", got, req)
	}
	// One blob per hop, each as long as one live item's σ makes it.
	resp := &EEBatchRenewResp{
		OK:      true,
		Granted: []uint64{8_000, 0},
		Status:  []uint8{EEItemOK, EEItemRefused},
		Blobs:   [][]byte{bytes.Repeat([]byte{1}, blobLen(1)), bytes.Repeat([]byte{2}, blobLen(1)), bytes.Repeat([]byte{3}, blobLen(1))},
	}
	enc := resp.Marshal()
	if len(enc) != eeBatchRespFixedLen+2*eeBatchTailLen+3*blobLen(1) {
		t.Fatalf("response of %d bytes", len(enc))
	}
	gotR, err := UnmarshalEEBatchRenewResp(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotR.Marshal(), enc) {
		t.Fatalf("response round-trip mismatch:\n%+v\n%+v", gotR, resp)
	}
}

// TestEEBatchRenewEndToEnd renews a wave of EERs in one batched round trip
// through the live CPlane-backed path and checks the grants match what the
// per-EER path would produce: version bumped, bandwidth kept, and hop
// authenticators that verify against each on-path AS's own Eq. 4.
func TestEEBatchRenewEndToEnd(t *testing.T) {
	f := cpFabric(t, 4, nil)
	f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	var prevs []*EERGrant
	bws := []uint64{8_000, 4_000, 2_000, 6_000, 1_000}
	for i, bw := range bws {
		g, err := src.RequestEER(uint32(100+i), uint32(200+i), ia(2, 11), bw)
		if err != nil {
			t.Fatalf("setup %d: %v", i, err)
		}
		prevs = append(prevs, g)
	}
	f.clock.Store(t0 + 1)
	grants, errs := src.RenewEERBatch(prevs, bws)
	for i := range grants {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		g := grants[i]
		if g.Res.Ver != 2 || uint64(g.Res.BwKbps) != bws[i] || g.Res.ExpT != t0+1+reservation.EERLifetimeSeconds {
			t.Fatalf("item %d grant: %+v", i, g.Res)
		}
		for h, ph := range g.PathHops {
			svc := f.services[ph.IA]
			want := svc.hopAuth(&g.Res, &g.EER, packet.HopField{In: ph.In, Eg: ph.Eg})
			if g.HopAuths[h] != want {
				t.Errorf("item %d hop %d (%s): σ mismatch", i, h, ph.IA)
			}
		}
	}
	// Renewing the *fresh* versions again in the same second is throttled
	// per EER — but a straggler retrying its *committed* renewal (same
	// version) is answered from the idempotent dedup, not throttled.
	_, errs = src.RenewEERBatch(grants, bws)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("item %d renewed twice in one second", i)
		}
	}
	before := src.Metrics().DedupHits.Value()
	retry, rerrs := src.RenewEERBatch([]*EERGrant{prevs[2]}, []uint64{bws[2]})
	if rerrs[0] != nil || retry[0].Res.Ver != 2 || uint64(retry[0].Res.BwKbps) != bws[2] {
		t.Fatalf("dedup retry: grant=%+v err=%v", retry[0], rerrs[0])
	}
	if src.Metrics().DedupHits.Value() == before {
		t.Error("retried renewal was re-admitted instead of deduplicated")
	}
}

// TestEEBatchRenewDifferential replays the same renewal workload through the
// batched path and the per-EER path on twin CPlane fabrics and demands
// identical grants and refusals — including the oversubscribed tail.
func TestEEBatchRenewDifferential(t *testing.T) {
	single := cpFabric(t, 4, nil)
	batched := cpFabric(t, 4, nil)
	single.setupAllSegRs(t, 50_000)
	batched.setupAllSegRs(t, 50_000)

	setup := func(f *fabric) []*EERGrant {
		src := f.services[ia(1, 11)]
		var gs []*EERGrant
		for i := uint32(0); i < 6; i++ {
			g, err := src.RequestEER(100+i, 200+i, ia(2, 11), 8_000)
			if err != nil {
				t.Fatalf("setup %d: %v", i, err)
			}
			gs = append(gs, g)
		}
		return gs
	}
	sg, bg := setup(single), setup(batched)
	single.clock.Store(t0 + 1)
	batched.clock.Store(t0 + 1)

	bws := make([]uint64, len(sg))
	for i, g := range sg {
		bws[i] = uint64(g.Res.BwKbps)
	}
	var singleOut []string
	for i, g := range sg {
		ng, err := single.services[ia(1, 11)].RenewEER(g, bws[i])
		singleOut = append(singleOut, fmt.Sprintf("%v/%d", err == nil, grantBw(ng)))
	}
	grants, errs := batched.services[ia(1, 11)].RenewEERBatch(bg, bws)
	for i := range grants {
		got := fmt.Sprintf("%v/%d", errs[i] == nil, grantBw(grants[i]))
		if got != singleOut[i] {
			t.Errorf("item %d: per-EER path %s, batched path %s", i, singleOut[i], got)
		}
	}
}

// TestKeeperFleetBatchedFailover replays the keeper failover scenario
// (renew → transport death → demotion at expiry → recovery → re-promotion)
// through KeeperFleet's batched waves, where the downstream loss of a whole
// wave demotes every flow at once and the recovering wave re-promotes them
// by re-admission at the hops that lost the records.
func TestKeeperFleetBatchedFailover(t *testing.T) {
	gate := &gateTransport{}
	f := cpFabric(t, 4, func(iaKey topology.IA, cfg *Config) {
		if iaKey == ia(1, 11) {
			gate.inner = cfg.Transport
			cfg.Transport = gate
		}
	})
	f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	gw := &fakeInstaller{}
	fleet := NewKeeperFleet(src)
	fleet.BatchSize = 3 // force multiple waves per tick
	const n = 8
	for i := uint32(0); i < n; i++ {
		g, err := src.RequestEER(100+i, 200+i, ia(2, 11), 2_000)
		if err != nil {
			t.Fatal(err)
		}
		fleet.Add(NewEERKeeper(src, gw, g, 4))
	}

	// Fresh grants: nothing due.
	if failed := fleet.Tick(); failed != 0 || gw.installs != 0 {
		t.Fatalf("fresh tick: failed=%d installs=%d", failed, gw.installs)
	}
	// Lead window: one batched wave renews everything.
	f.clock.Store(t0 + 13)
	if failed := fleet.Tick(); failed != 0 {
		t.Fatalf("renewal tick failed %d items", failed)
	}
	if gw.installs != n {
		t.Fatalf("installs = %d, want %d", gw.installs, n)
	}
	for i := range fleet.Len() {
		if fleet.Renewals(i) != 1 || fleet.Grant(i).Res.Ver != 2 {
			t.Fatalf("keeper %d state: renewals=%d ver=%d", i, fleet.Renewals(i), fleet.Grant(i).Res.Ver)
		}
	}
	exp := fleet.Grant(0).Res.ExpT

	// Transport dies mid-lifetime: failures tolerated, no demotion.
	gate.fail.Store(true)
	f.clock.Store(exp - 3)
	if failed := fleet.Tick(); failed != n || fleet.Demoted() != 0 {
		t.Fatalf("mid-life outage: failed=%d demoted=%d", failed, fleet.Demoted())
	}
	// Still down when the versions die: the whole fleet falls back to
	// best-effort.
	f.clock.Store(exp - 1)
	if failed := fleet.Tick(); failed != n || fleet.Demoted() != n {
		t.Fatalf("at expiry: failed=%d demoted=%d", failed, fleet.Demoted())
	}
	if got := src.Metrics().Demotions.Value(); got != n {
		t.Fatalf("Demotions = %d, want %d", got, n)
	}
	// Recovery after expiry: downstream hops have expired the records, so
	// the batched renewal re-admits them and every flow re-promotes.
	gate.fail.Store(false)
	f.clock.Store(exp + 2)
	if failed := fleet.Tick(); failed != 0 {
		t.Fatalf("recovery tick failed %d items", failed)
	}
	if fleet.Demoted() != 0 {
		t.Fatalf("%d flows still demoted after recovery", fleet.Demoted())
	}
	if got := src.Metrics().Promotions.Value(); got != n {
		t.Fatalf("Promotions = %d, want %d", got, n)
	}
}
