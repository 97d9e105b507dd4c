package core

import (
	"errors"
	"strings"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/cserv"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/router"
	"colibri/internal/topology"
)

func ia(isd topology.ISD, as topology.ASID) topology.IA { return topology.MustIA(isd, as) }

// grantOf returns s's serving version as its keeper holds it, with the σs the
// gateway holds.
func grantOf(s *Session) *cserv.EERGrant {
	f, i := s.keeper()
	g := f.Grant(i)
	g.HopAuths = s.Grant().HopAuths
	return &g
}

// twoISDNet wires the Fig. 1 topology and sets up the SegR mesh.
func twoISDNet(t testing.TB, opts Options) (*Network, *Host, *Host) {
	t.Helper()
	net, err := NewNetwork(topology.TwoISD(topology.LinkSpec{}), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AutoSetupSegRs(1_000_000); err != nil {
		t.Fatal(err)
	}
	hs, err := net.AddHost(ia(1, 11), 0x0a000001)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := net.AddHost(ia(2, 11), 0x14000001)
	if err != nil {
		t.Fatal(err)
	}
	return net, hs, hd
}

func TestEndToEndReservationAndTraffic(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	sess, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	if sess.BandwidthKbps() != 8_000 {
		t.Errorf("bandwidth = %d", sess.BandwidthKbps())
	}
	if sess.PathLen() != 5 {
		t.Errorf("path length = %d", sess.PathLen())
	}
	for i := 0; i < 10; i++ {
		net.Clock.Advance(1e6)
		if err := sess.Send([]byte("ping")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if hd.Received != 10 {
		t.Errorf("destination received %d packets", hd.Received)
	}
	if string(hd.Inbox[0]) != "ping" {
		t.Errorf("payload %q", hd.Inbox[0])
	}
}

func TestGatewayEnforcesRate(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	// 800 kbps ≈ 100 kB/s: 1000-byte packets every 1 ms are 10× the rate.
	sess, err := hs.RequestEER(hd, 800)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	var sent, dropped int
	for i := 0; i < 2000; i++ {
		net.Clock.Advance(1e6)
		if err := sess.Send(payload); err != nil {
			dropped++
		} else {
			sent++
		}
	}
	if dropped == 0 {
		t.Fatal("no gateway drops at 10× the reservation")
	}
	// Delivered goodput must be ≈ the reservation: 2 s × 100 kB/s ≈ 200 kB
	// → ≈ 190 packets of ~1 kB (plus burst).
	if hd.Received > 300 {
		t.Errorf("destination received %d packets, far above the reservation", hd.Received)
	}
}

func TestRenewalSeamless(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	sess, err := hs.RequestEER(hd, 4_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send([]byte("before")); err != nil {
		t.Fatal(err)
	}
	// Renew to double bandwidth a few seconds in; traffic continues.
	net.Clock.Advance(5e9)
	if err := sess.Renew(8_000); err != nil {
		t.Fatal(err)
	}
	if sess.BandwidthKbps() != 8_000 {
		t.Errorf("renewed bandwidth = %d", sess.BandwidthKbps())
	}
	if err := sess.Send([]byte("after")); err != nil {
		t.Fatalf("send after renewal: %v", err)
	}
	if hd.Received != 2 {
		t.Errorf("received %d", hd.Received)
	}
}

func TestEERSurvivesSegRVersionSwitch(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	sess, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	// Renew + activate the underlying up-SegR (initiated by 1-11).
	src := net.Node(ia(1, 11)).CServ
	segID := grantOf(sess).SegIDs[0]
	ver, _, err := src.RenewSegment(segID, 0, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.ActivateSegment(segID, ver); err != nil {
		t.Fatal(err)
	}
	// The existing EER still works (§4.2: "EERs are not affected by a
	// version change of their underlying SegR").
	if err := sess.Send([]byte("still works")); err != nil {
		t.Fatal(err)
	}
	if hd.Received != 1 {
		t.Errorf("received %d", hd.Received)
	}
}

func TestExpiryStopsTraffic(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	sess, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	net.Clock.Advance((reservation.EERLifetimeSeconds + 1) * 1e9)
	net.Tick()
	if err := sess.Send([]byte("too late")); err == nil {
		t.Fatal("send over expired EER succeeded")
	}
	if hd.Received != 1 {
		t.Errorf("received %d", hd.Received)
	}
}

// TestSpoofedSourceRejected models the §5.1 framing attack: an adversary
// crafts packets claiming the victim's (1-11's) reservation. Without 1-11's
// hop authenticators the HVFs cannot be forged, so border routers drop the
// packets and the victim is never framed.
func TestSpoofedSourceRejected(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	sess, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	// A gateway only accepts reservations of its own AS.
	evil := net.GatewayOf(ia(1, 3))
	if g := grantOf(sess); evil.Install(g.Res, g.EER, g.Path, g.HopAuths) == nil {
		t.Fatal("gateway of 1-3 accepted a foreign reservation")
	}
	// The adversary forges the header with invented HVFs: the first hop
	// whose HVF is wrong drops the packet.
	pktBuf := rogueBuild(t, grantOf(sess), make([]byte, 100), net.Clock.NowNs())
	for i := len(pktBuf) - 100 - 20; i < len(pktBuf)-100; i++ {
		pktBuf[i] ^= 0xA5 // corrupt all 5 HVFs
	}
	if err := net.InjectPacket(pktBuf, ia(1, 11)); err == nil {
		t.Fatal("packet with forged HVFs delivered")
	} else if !strings.Contains(err.Error(), "hop validation") {
		t.Errorf("unexpected drop reason: %v", err)
	}
	if hd.Received != 0 {
		t.Errorf("destination received %d forged packets", hd.Received)
	}
}

// rogueBuild stamps a data packet directly from the hop authenticators,
// bypassing the gateway's deterministic monitoring — the §4.8 "source AS
// did not perform its monitoring task properly" scenario.
func rogueBuild(t testing.TB, grant *cserv.EERGrant, payload []byte, nowNs int64) []byte {
	t.Helper()
	pkt := packet.Packet{
		Type:    packet.TData,
		CurrHop: 0,
		Res:     grant.Res,
		EER:     grant.EER,
		Ts:      uint64(nowNs),
		Path:    grant.Path,
		HVFs:    make([]byte, len(grant.Path)*packet.HVFLen),
		Payload: payload,
	}
	var in [packet.HVFInputLen]byte
	packet.HVFInput(&in, pkt.Ts, uint32(pkt.Length()))
	for i, a := range grant.HopAuths {
		var mac [cryptoutil.MACSize]byte
		cryptoutil.MACOneBlock(cryptoutil.NewBlock(a), &mac, &in)
		copy(pkt.HVFs[i*packet.HVFLen:], mac[:packet.HVFLen])
	}
	buf := make([]byte, pkt.Length())
	if _, err := pkt.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestReplayAttackSuppressed is the §5.1 replay-framing defense end to end:
// with duplicate suppression enabled, re-forwarding a captured packet fails.
func TestReplayAttackSuppressed(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{EnableReplaySuppression: true})
	sess, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	// Build one packet manually so we can replay the exact bytes.
	node := net.Node(ia(1, 11))
	buf := make([]byte, 512)
	sz, err := node.Gateway.NewWorker().Build(grantOf(sess).Res.ResID, []byte("x"), buf, net.Clock.NowNs())
	if err != nil {
		t.Fatal(err)
	}
	original := append([]byte(nil), buf[:sz]...)
	if err := net.InjectPacket(buf[:sz], ia(1, 11)); err != nil {
		t.Fatal(err)
	}
	// The adversary replays the captured packet moments later.
	net.Clock.Advance(5e6)
	err = net.InjectPacket(original, ia(1, 11))
	if err == nil {
		t.Fatal("replayed packet delivered")
	}
	if !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("drop reason: %v", err)
	}
	if hd.Received != 1 {
		t.Errorf("received %d", hd.Received)
	}
}

// TestOverusePunished is the §4.8/§5.1 policing pipeline end to end: a
// misbehaving source AS bypasses its own gateway monitoring and floods at
// 100× its reservation; a transit AS's OFD flags the flow, deterministic
// monitoring confirms the overuse, and the source AS is blocklisted.
func TestOverusePunished(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{EnableOFD: true})
	sess, err := hs.RequestEER(hd, 800) // 800 kbps
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	var overuse, blocked bool
	for i := 1; i <= 200_000 && !blocked; i++ {
		net.Clock.Advance(1e5) // 10 000 pps of ~1 kB ≈ 80 Mbps on 800 kbps
		buf := rogueBuild(t, grantOf(sess), payload, net.Clock.NowNs())
		err := net.InjectPacket(buf, ia(1, 11))
		switch {
		case err == nil:
		case strings.Contains(err.Error(), "overuse"):
			overuse = true
		case strings.Contains(err.Error(), "blocklist"):
			blocked = true
		}
	}
	if !overuse {
		t.Fatal("overuse never confirmed by deterministic monitoring")
	}
	if !blocked {
		t.Fatal("rogue source AS never blocklisted")
	}
	// The victim reservation is cut off; legitimate packets are now dropped
	// too — the punishment the paper prescribes for the offending AS.
	if err := sess.Send([]byte("post-block")); err == nil {
		t.Error("blocked source still delivering")
	}
	_ = hd
}

func TestPathChoiceFallback(t *testing.T) {
	// Fill one up-SegR completely; the second EER must succeed via the
	// alternative up-SegR. The shared core and down SegRs are sized at
	// 2 Gbps so only the 1 Gbps up-SegRs can be the bottleneck.
	net, err := NewNetwork(topology.TwoISD(topology.LinkSpec{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range net.Registry.UpSegments(ia(1, 11)) {
		if err := net.SetupSegR(seg, 0, 1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.SetupSegR(net.Registry.CoreSegments(ia(1, 1), ia(2, 1))[0], 0, 2_000_000); err != nil {
		t.Fatal(err)
	}
	if err := net.SetupSegR(net.Registry.DownSegments(ia(2, 11))[0], 0, 2_000_000); err != nil {
		t.Fatal(err)
	}
	hs, err := net.AddHost(ia(1, 11), 1)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := net.AddHost(ia(2, 11), 2)
	if err != nil {
		t.Fatal(err)
	}
	chains, err := net.Node(ia(1, 11)).CServ.SegRsTo(ia(2, 11))
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) < 2 {
		t.Fatalf("need ≥ 2 chains for this test, got %d", len(chains))
	}
	// Exhaust the first chain's up SegR by a giant EER.
	sess1, err := hs.RequestEER(hd, 900_000)
	if err != nil {
		t.Fatal(err)
	}
	// Next reservation cannot fit on the same SegR (1 Gbps SegRs): it must
	// fall back to another chain — still succeeding.
	sess2, err := hs.RequestEER(hd, 900_000)
	if err != nil {
		t.Fatalf("no fallback path: %v", err)
	}
	if grantOf(sess1).SegIDs[0] == grantOf(sess2).SegIDs[0] {
		t.Error("second EER did not use an alternative segment reservation")
	}
	if err := sess2.Send([]byte("via fallback")); err != nil {
		t.Fatal(err)
	}
	if hd.Received != 1 {
		t.Errorf("received %d", hd.Received)
	}
}

func TestControlPlaneSurvivesUnknownAS(t *testing.T) {
	net, _, _ := twoISDNet(t, Options{})
	if _, err := net.Call(ia(9, 9), []byte{1}); err == nil {
		t.Error("call to unknown AS succeeded")
	}
	if _, err := net.QueryKeyServer(ia(9, 9), nil); err == nil {
		t.Error("key query to unknown AS succeeded")
	}
	if _, err := net.AddHost(ia(9, 9), 1); err == nil {
		t.Error("host added to unknown AS")
	}
	if _, err := net.AddHost(ia(1, 11), 0x0a000001); err == nil {
		t.Error("duplicate host accepted")
	}
}

func TestForwardDropReasonsSurface(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	sess, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	// Block the source at the transit router: the drop reason surfaces.
	net.Node(ia(1, 2)).Router.Blocklist().Block(ia(1, 11), 0)
	net.Node(ia(1, 3)).Router.Blocklist().Block(ia(1, 11), 0)
	err = sess.Send([]byte("x"))
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "blocklist") {
		t.Errorf("reason: %v", err)
	}
	_ = router.ErrBlocked
}

func TestLargerGeneratedTopologyEndToEnd(t *testing.T) {
	topo := topology.Generate(topology.GenSpec{
		ISDs: 2, CoresPerISD: 2, ProvidersPerISD: 2, LeavesPerISD: 3,
		ProviderUplinks: 2, LeafUplinks: 2, Seed: 11,
	})
	net, err := NewNetwork(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AutoSetupSegRs(100_000); err != nil {
		t.Fatal(err)
	}
	src, err := net.AddHost(ia(1, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := net.AddHost(ia(2, 6), 2)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := src.RequestEER(dst, 4_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		net.Clock.Advance(1e6)
		if err := sess.Send([]byte("hello")); err != nil {
			t.Fatal(err)
		}
	}
	if dst.Received != 5 {
		t.Errorf("received %d", dst.Received)
	}
}

// TestConformingSessionsStayUnwatched: a transit hop keeps no state for a
// flow that conforms. The sessions are the shape that defeated a detector
// which counted a packet against itself — one packet is 68 ms of budget, more
// than the OFD's 50 ms window — and every one of them used to end up under
// deterministic monitoring at every router on the path.
func TestConformingSessionsStayUnwatched(t *testing.T) {
	const sessions, kbps, seconds = 2048, 128, 4
	net, hs, hd := twoISDNet(t, Options{EnableOFD: true, EnableReplaySuppression: true, RateLimit: 1 << 30})
	sess := make([]*Session, sessions)
	for i := range sess {
		var err error
		if sess[i], err = hs.RequestEER(hd, kbps); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 1000)
	// One 1088-byte packet per session every 85 ms is 80 % of 128 kbps.
	stepNs := int64(85_000_000 / sessions)
	for sent := 0; int64(sent)*stepNs < seconds*1e9; sent++ {
		net.Clock.Advance(stepNs)
		if err := sess[sent%sessions].Send(payload); err != nil {
			t.Fatalf("packet %d: %v", sent, err)
		}
	}
	for _, ia := range net.Topo.SortedIAs() {
		r := net.Node(ia).Router
		if w := r.Watched(); w > sessions*2/100 {
			t.Errorf("%s watches %d of %d conforming flows, want ≤ 2 %% (sketch collisions only)", ia, w, sessions)
		}
		if d := r.Drops(); len(d) != 0 {
			t.Errorf("%s dropped conforming packets: %v", ia, d)
		}
	}
}
