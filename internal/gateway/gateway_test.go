package gateway

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/topology"
)

var (
	srcAS  = topology.MustIA(1, 11)
	tPath  = []packet.HopField{{Eg: 1}, {In: 2, Eg: 3}, {In: 4}}
	tAuths = []cryptoutil.Key{{1}, {2}, {3}}
	baseNs = int64(1_700_000_000) * 1e9
)

func testRes(resID uint32, bwKbps uint32) packet.ResInfo {
	return packet.ResInfo{
		SrcAS:  srcAS,
		ResID:  resID,
		BwKbps: bwKbps,
		ExpT:   uint32(baseNs/1e9) + 16,
		Ver:    1,
	}
}

func TestBuildProducesValidPacket(t *testing.T) {
	g := New(srcAS)
	res := testRes(7, 8000)
	eer := packet.EERInfo{SrcHost: 1, DstHost: 2}
	if err := g.Install(res, eer, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	w := g.NewWorker()
	buf := make([]byte, 2048)
	n, err := w.Build(7, []byte("hello"), buf, baseNs)
	if err != nil {
		t.Fatal(err)
	}
	var pkt packet.Packet
	if _, err := pkt.DecodeFromBytes(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if pkt.Type != packet.TData || pkt.CurrHop != 0 || pkt.Res != res || pkt.EER != eer {
		t.Errorf("decoded packet: %+v", pkt)
	}
	if string(pkt.Payload) != "hello" {
		t.Errorf("payload %q", pkt.Payload)
	}
	// HVF must equal MAC_{σ_i}(Ts ‖ PktSize)[:4].
	var in [packet.HVFInputLen]byte
	packet.HVFInput(&in, pkt.Ts, uint32(n))
	for i, a := range tAuths {
		var mac [cryptoutil.MACSize]byte
		cryptoutil.MACOneBlock(cryptoutil.NewBlock(a), &mac, &in)
		if !cryptoutil.ConstantTimeEqual(mac[:packet.HVFLen], pkt.HVF(i)) {
			t.Errorf("HVF %d mismatch", i)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	g := New(srcAS)
	w := g.NewWorker()
	buf := make([]byte, 2048)
	if _, err := w.Build(99, nil, buf, baseNs); !errors.Is(err, ErrUnknownRes) {
		t.Errorf("unknown reservation: %v", err)
	}
	res := testRes(7, 8000)
	if err := g.Install(res, packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Build(7, nil, buf[:4], baseNs); !errors.Is(err, ErrBufTooSmall) {
		t.Errorf("small buffer: %v", err)
	}
	expired := (int64(res.ExpT) + 1) * 1e9
	if _, err := w.Build(7, nil, buf, expired); !errors.Is(err, ErrExpired) {
		t.Errorf("expired: %v", err)
	}
}

func TestInstallValidation(t *testing.T) {
	g := New(srcAS)
	res := testRes(1, 100)
	res.SrcAS = topology.MustIA(9, 9)
	if err := g.Install(res, packet.EERInfo{}, tPath, tAuths); err == nil {
		t.Error("foreign reservation installed")
	}
	res = testRes(1, 100)
	if err := g.Install(res, packet.EERInfo{}, tPath, tAuths[:2]); err == nil {
		t.Error("mismatched auths installed")
	}
}

func TestTimestampsStrictlyIncrease(t *testing.T) {
	g := New(srcAS)
	if err := g.Install(testRes(7, 1_000_000), packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	w := g.NewWorker()
	buf := make([]byte, 2048)
	var pkt packet.Packet
	var last uint64
	for i := 0; i < 1000; i++ {
		// Same nominal time for every packet: Ts must still be unique.
		n, err := w.Build(7, nil, buf, baseNs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pkt.DecodeFromBytes(buf[:n]); err != nil {
			t.Fatal(err)
		}
		if pkt.Ts <= last {
			t.Fatalf("Ts %d not increasing after %d", pkt.Ts, last)
		}
		last = pkt.Ts
	}
}

func TestGatewayEnforcesReservation(t *testing.T) {
	g := New(srcAS)
	// 8 Mbps: 1000-byte packets at 1 ms conform, at 0.25 ms they do not.
	if err := g.Install(testRes(7, 8000), packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	w := g.NewWorker()
	buf := make([]byte, 2048)
	payload := make([]byte, 1000)
	var passed, dropped int
	for i := 1; i <= 4000; i++ {
		_, err := w.Build(7, payload, buf, baseNs+int64(i)*25e4)
		switch {
		case err == nil:
			passed++
		case errors.Is(err, ErrRateExceeded):
			dropped++
		default:
			t.Fatal(err)
		}
	}
	// 4000 packets in 1 s at 4× rate: ≈ 1000 pass (packet > 1000 B with
	// header, so slightly fewer).
	if passed > 1100 || passed < 800 {
		t.Errorf("passed %d of 4000 at 4× rate", passed)
	}
	if dropped == 0 {
		t.Error("no drops at 4× rate")
	}
}

func TestRenewalRaisesMonitoredRate(t *testing.T) {
	g := New(srcAS)
	if err := g.Install(testRes(7, 8000), packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	// Renewal doubles the bandwidth; versions share the max budget.
	res2 := testRes(7, 16000)
	res2.Ver = 2
	if err := g.Install(res2, packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	w := g.NewWorker()
	buf := make([]byte, 2048)
	payload := make([]byte, 1000)
	var passed int
	for i := 1; i <= 2000; i++ {
		if _, err := w.Build(7, payload, buf, baseNs+int64(i)*5e5); err == nil {
			passed++
		}
	}
	// 2000 pps × 1000 B ≈ 16 Mbps: nearly everything passes now.
	if passed < 1800 {
		t.Errorf("passed %d of 2000 after renewal", passed)
	}
}

func TestRenewalAtLowerBwKeepsMaxBudget(t *testing.T) {
	g := New(srcAS)
	if err := g.Install(testRes(7, 16000), packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	res2 := testRes(7, 8000)
	res2.Ver = 2
	if err := g.Install(res2, packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	// While both versions are valid the budget stays at the max (16 Mbps).
	w := g.NewWorker()
	buf := make([]byte, 2048)
	payload := make([]byte, 1000)
	var passed int
	for i := 1; i <= 2000; i++ {
		if _, err := w.Build(7, payload, buf, baseNs+int64(i)*5e5); err == nil {
			passed++
		}
	}
	if passed < 1800 {
		t.Errorf("passed %d of 2000 with max-version budget", passed)
	}
}

func TestRemove(t *testing.T) {
	g := New(srcAS)
	if err := g.Install(testRes(7, 8000), packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
	g.Remove(7)
	if g.Len() != 0 {
		t.Fatalf("Len after Remove = %d", g.Len())
	}
	w := g.NewWorker()
	buf := make([]byte, 2048)
	if _, err := w.Build(7, nil, buf, baseNs); !errors.Is(err, ErrUnknownRes) {
		t.Errorf("after remove: %v", err)
	}
}

func BenchmarkBuild4Hops(b *testing.B) {
	g := New(srcAS)
	if err := g.Install(testRes(7, 100_000_000), packet.EERInfo{},
		[]packet.HopField{{Eg: 1}, {In: 1, Eg: 2}, {In: 1, Eg: 2}, {In: 4}},
		make([]cryptoutil.Key, 4)); err != nil {
		b.Fatal(err)
	}
	w := g.NewWorker()
	buf := make([]byte, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Build(7, nil, buf, baseNs+int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInstallRefusesUnsendablePath: a path of no hop, or of more than the
// wire's packet.MaxHops, is refused at Install, not on every packet after.
func TestInstallRefusesUnsendablePath(t *testing.T) {
	g := New(srcAS)
	for _, hops := range []int{0, packet.MaxHops + 1} {
		res := testRes(uint32(10+hops), 8000)
		err := g.Install(res, packet.EERInfo{}, make([]packet.HopField, hops), make([]cryptoutil.Key, hops))
		if !errors.Is(err, packet.ErrBadPath) {
			t.Errorf("%d hops: Install = %v, want %v", hops, err, packet.ErrBadPath)
		}
		if _, err := g.NewWorker().Build(res.ResID, nil, make([]byte, 2048), baseNs); !errors.Is(err, ErrUnknownRes) {
			t.Errorf("%d hops: Build after the refused Install = %v, want %v", hops, err, ErrUnknownRes)
		}
	}
	if g.Len() != 0 {
		t.Errorf("%d reservations installed", g.Len())
	}
}

// TestTemplateMatchesSerialize: a packet built from the template Install
// encodes is, byte for byte, the packet SerializeTo encodes with the HVFs of
// Eq. (6) — for every path length and payloads from 0 to MaxPayload; one
// byte more is refused. Each path length goes through the life of one EER: a
// new record, a demotion, renewals over the same path, over another path of
// the same hop count and over a path of another hop count (the first two
// re-encode the template in place), and expiry, after which the next length
// starts a fresh record under the same ResID.
func TestTemplateMatchesSerialize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New(srcAS)
	w := g.NewWorker()
	out := make([]byte, packet.DataLen(packet.MaxHops, packet.MaxPayload+1))
	now := baseNs
	randPath := func(hops int) ([]packet.HopField, []cryptoutil.Key) {
		path := make([]packet.HopField, hops)
		auths := make([]cryptoutil.Key, hops)
		for h := range path {
			path[h] = packet.HopField{In: topology.IfID(rng.Intn(1 << 16)), Eg: topology.IfID(rng.Intn(1 << 16))}
			rng.Read(auths[h][:])
		}
		return path, auths
	}
	res := testRes(1, 1<<31)
	var eer packet.EERInfo
	var path []packet.HopField
	var auths []cryptoutil.Key
	// install installs the next version of the EER, and check builds packets
	// of every payload size from it.
	install := func(what string) {
		res.Ver++
		res.ExpT = uint32(now/1e9) + 2
		if err := g.Install(res, eer, path, auths); err != nil {
			t.Fatalf("%s, %d hops: %v", what, len(path), err)
		}
	}
	check := func(what string) {
		hops := len(path)
		for _, size := range []int{0, 1, 47, 1000, rng.Intn(packet.MaxPayload), packet.MaxPayload - 1, packet.MaxPayload} {
			payload := make([]byte, size)
			rng.Read(payload)
			now += 1e6
			n, err := w.Build(res.ResID, payload, out, now)
			if err != nil {
				t.Fatalf("%s, %d hops, %d B: %v", what, hops, size, err)
			}
			want := packet.Packet{Type: packet.TData, Res: res, EER: eer, Path: path, Payload: payload,
				Ts: uint64(now), HVFs: make([]byte, hops*packet.HVFLen)}
			var in [packet.HVFInputLen]byte
			packet.HVFInput(&in, want.Ts, uint32(want.Length()))
			for h, a := range auths {
				var mac [cryptoutil.MACSize]byte
				cryptoutil.MACOneBlock(cryptoutil.NewBlock(a), &mac, &in)
				copy(want.HVFs[h*packet.HVFLen:], mac[:packet.HVFLen])
			}
			wire, err := want.Serialize()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out[:n], wire) {
				t.Fatalf("%s, %d hops, %d B: the built packet differs from SerializeTo's", what, hops, size)
			}
		}
		if _, err := w.Build(res.ResID, make([]byte, packet.MaxPayload+1), out, now); !errors.Is(err, packet.ErrPayloadLen) {
			t.Errorf("%s, %d hops, %d B: %v, want %v", what, hops, packet.MaxPayload+1, err, packet.ErrPayloadLen)
		}
	}
	for hops := 1; hops <= packet.MaxHops; hops++ {
		res.Ver = uint16(rng.Intn(1 << 16))
		eer = packet.EERInfo{SrcHost: rng.Uint32(), DstHost: rng.Uint32()}
		path, auths = randPath(hops)
		install("new record")
		check("new record")
		if !g.Demote(res.ResID) {
			t.Fatalf("%d hops: not demoted", hops)
		}
		if _, err := w.Build(res.ResID, nil, out, now); !errors.Is(err, ErrDemoted) {
			t.Fatalf("%d hops, demoted: %v", hops, err)
		}
		res.BwKbps--
		_, auths = randPath(hops)
		install("same path")
		check("same path")
		path, auths = randPath(hops)
		install("same hop count")
		check("same hop count")
		path, auths = randPath(packet.MaxHops + 1 - hops)
		install("another hop count")
		check("another hop count")
		now = int64(res.ExpT) * 1e9
		if n := g.Expire(res.ExpT); n != 1 {
			t.Fatalf("%d hops: Expire dropped %d records", hops, n)
		}
		if _, err := w.Build(res.ResID, nil, out, now); !errors.Is(err, ErrUnknownRes) {
			t.Fatalf("%d hops, expired: %v", hops, err)
		}
	}
}

// TestRenewalInstallAllocatesNothing: renewing a known record — a new
// version, bandwidth, expiry and σs over a path of the same hop count —
// re-encodes its template in place and allocates nothing, and the packets
// built after it carry the new version.
func TestRenewalInstallAllocatesNothing(t *testing.T) {
	g := New(srcAS)
	res, eer := testRes(7, 8000), packet.EERInfo{SrcHost: 1, DstHost: 2}
	if err := g.Install(res, eer, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	path, auths := slices.Clone(tPath), slices.Clone(tAuths)
	allocs := testing.AllocsPerRun(100, func() {
		res.Ver++
		res.ExpT++
		res.BwKbps ^= 1
		path[1].Eg++
		auths[0][0]++
		if err := g.Install(res, eer, path, auths); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a renewal Install allocates %.1f times, want 0", allocs)
	}
	buf := make([]byte, 2048)
	n, err := g.NewWorker().Build(7, nil, buf, baseNs)
	if err != nil {
		t.Fatal(err)
	}
	var pkt packet.Packet
	if _, err := pkt.DecodeFromBytes(buf[:n]); err != nil || pkt.Res != res || !slices.Equal(pkt.Path, path) {
		t.Fatalf("built %+v, %v; want version %+v over %v", pkt, err, res, path)
	}
}
