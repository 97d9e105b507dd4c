package core

import (
	"math/rand"
	"testing"

	"colibri/internal/admission"
	"colibri/internal/topology"
)

// TestInternetScaleScenario drives a 68-AS, 4-ISD Internet-like topology:
// full SegR bootstrap, dozens of concurrent EERs between random leaf pairs,
// protected traffic, and the global §5.1 safety invariant — on every egress
// interface of every AS, admitted SegR bandwidth never exceeds the Colibri
// share of the link.
func TestInternetScaleScenario(t *testing.T) {
	topo := topology.Generate(topology.GenSpec{
		ISDs: 4, CoresPerISD: 3, ProvidersPerISD: 4, LeavesPerISD: 10,
		ProviderUplinks: 2, LeafUplinks: 2, Seed: 42,
	})
	net, err := NewNetwork(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AutoSetupSegRs(50_000); err != nil {
		t.Fatal(err)
	}

	// Attach one host per leaf AS.
	rng := rand.New(rand.NewSource(7))
	var hosts []*Host
	for _, as := range topo.NonCoreASes() {
		// Leaves are the ASes beyond cores+providers: AS numbers > 7.
		if as.IA.AS() <= 7 {
			continue
		}
		h, err := net.AddHost(as.IA, uint32(as.IA.AS()))
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	if len(hosts) != 40 {
		t.Fatalf("%d leaf hosts", len(hosts))
	}

	// 30 random cross-ISD reservations.
	var sessions []*Session
	for len(sessions) < 30 {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if src.IA == dst.IA {
			continue
		}
		sess, err := src.RequestEER(dst, uint64(1000+rng.Intn(4000)))
		if err != nil {
			// Some pairs may contend a full SegR; that is a valid refusal,
			// not a test failure — but most must succeed.
			continue
		}
		sessions = append(sessions, sess)
	}

	// Everyone sends; everything arrives.
	for round := 0; round < 5; round++ {
		net.Clock.Advance(1e8)
		for _, s := range sessions {
			if err := s.Send([]byte("payload")); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
	}
	var received int
	for _, h := range hosts {
		received += h.Received
	}
	if received != 5*len(sessions) {
		t.Errorf("received %d of %d", received, 5*len(sessions))
	}

	// Global safety invariant: no egress interface over-allocated. The check
	// must have something to look at: the mesh is admitted at every AS.
	var allocated uint64
	for _, iaKey := range topo.SortedIAs() {
		as := topo.AS(iaKey)
		cp := net.Node(iaKey).CServ.CPlane()
		if ct := cp.Counts(); ct.SegRs == 0 {
			t.Errorf("%s: no SegR admitted", iaKey)
		}
		for _, ifID := range as.SortedIfIDs() {
			capK := admission.DefaultSplit.EERShare(as.Interfaces[ifID].CapacityKbps())
			got := cp.AllocatedKbps(ifID)
			if got > capK {
				t.Errorf("%s egress %d: allocated %d > capacity %d", iaKey, ifID, got, capK)
			}
			allocated += got
		}
	}
	if allocated == 0 {
		t.Error("no egress carries any admitted SegR bandwidth")
	}

	// Housekeeping at scale: expire everything and verify stores drain.
	net.Clock.Advance(400e9)
	net.Tick()
	for _, iaKey := range topo.SortedIAs() {
		cs := net.Node(iaKey).CServ
		if segs := cs.Store().Len(); segs != 0 {
			t.Errorf("%s: store keeps %d SegRs after global expiry", iaKey, segs)
		}
		if ct := cs.CPlane().Counts(); ct.SegRs != 0 || ct.EERs != 0 {
			t.Errorf("%s: %d SegRs, %d EERs after global expiry", iaKey, ct.SegRs, ct.EERs)
		}
		for _, ifID := range topo.AS(iaKey).SortedIfIDs() {
			if got := cs.CPlane().AllocatedKbps(ifID); got != 0 {
				t.Errorf("%s egress %d: admission still holds %d kbps", iaKey, ifID, got)
			}
		}
	}
}
