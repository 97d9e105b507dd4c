package router

import (
	"errors"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/gateway"
	"colibri/internal/ofd"
	"colibri/internal/packet"
	"colibri/internal/replay"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// testnet builds a 3-AS forwarding chain: source AS 1-11 (with gateway),
// transit 1-1, destination 1-2, all sharing one reservation.
type testnet struct {
	secrets map[topology.IA]cryptoutil.Key
	routers []*Router // in path order
	gw      *gateway.Gateway
	res     packet.ResInfo
	eer     packet.EERInfo
	path    []packet.HopField
	ias     []topology.IA
}

const baseNs = int64(1_700_000_000) * 1e9

func sigmaFor(secret cryptoutil.Key, res *packet.ResInfo, eer *packet.EERInfo, hf packet.HopField) cryptoutil.Key {
	var in [packet.EERAuthLen]byte
	packet.EERAuthInput(&in, res, eer, hf)
	var out [cryptoutil.MACSize]byte
	cryptoutil.MustCBCMAC(secret).SumInto(&out, in[:])
	return cryptoutil.Key(out)
}

func newTestnet(t testing.TB, mutate func(i int, cfg *Config)) *testnet {
	t.Helper()
	n := &testnet{
		secrets: make(map[topology.IA]cryptoutil.Key),
		ias: []topology.IA{
			topology.MustIA(1, 11), topology.MustIA(1, 1), topology.MustIA(1, 2),
		},
		path: []packet.HopField{{In: 0, Eg: 1}, {In: 2, Eg: 3}, {In: 4, Eg: 0}},
	}
	n.res = packet.ResInfo{
		SrcAS:  n.ias[0],
		ResID:  7,
		BwKbps: 8_000,
		ExpT:   uint32(baseNs/1e9) + reservation.EERLifetimeSeconds,
		Ver:    1,
	}
	n.eer = packet.EERInfo{SrcHost: 0x0a000001, DstHost: 0x0a000002}
	auths := make([]cryptoutil.Key, len(n.path))
	for i, iaKey := range n.ias {
		n.secrets[iaKey] = cryptoutil.Key{byte(i + 1), 0x77}
		auths[i] = sigmaFor(n.secrets[iaKey], &n.res, &n.eer, n.path[i])
		cfg := Config{IA: iaKey, Secret: n.secrets[iaKey]}
		if mutate != nil {
			mutate(i, &cfg)
		}
		n.routers = append(n.routers, New(cfg))
	}
	n.gw = gateway.New(n.ias[0])
	if err := n.gw.Install(n.res, n.eer, n.path, auths); err != nil {
		t.Fatal(err)
	}
	return n
}

// buildPacket produces one gateway-built packet.
func (n *testnet) buildPacket(t testing.TB, payload []byte, nowNs int64) []byte {
	t.Helper()
	buf := make([]byte, 2048)
	w := n.gw.NewWorker()
	sz, err := w.Build(n.res.ResID, payload, buf, nowNs)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:sz]
}

func TestEndToEndForwarding(t *testing.T) {
	n := newTestnet(t, nil)
	buf := n.buildPacket(t, []byte("payload"), baseNs)

	// Hop 0: source AS border router forwards out of interface 1.
	v, err := n.routers[0].NewWorker().Process(buf, baseNs)
	if err != nil {
		t.Fatal(err)
	}
	if v.Action != AForward || v.Egress != 1 {
		t.Fatalf("hop 0 verdict %+v", v)
	}
	// Hop 1: transit forwards out of interface 3.
	v, err = n.routers[1].NewWorker().Process(buf, baseNs+1e6)
	if err != nil {
		t.Fatal(err)
	}
	if v.Action != AForward || v.Egress != 3 {
		t.Fatalf("hop 1 verdict %+v", v)
	}
	// Hop 2: destination delivers to DstHost.
	v, err = n.routers[2].NewWorker().Process(buf, baseNs+2e6)
	if err != nil {
		t.Fatal(err)
	}
	if v.Action != ADeliver || v.DstHost != n.eer.DstHost {
		t.Fatalf("hop 2 verdict %+v", v)
	}
}

func TestForgedHVFDropped(t *testing.T) {
	n := newTestnet(t, nil)
	buf := n.buildPacket(t, nil, baseNs)
	// Flip one bit in hop 1's HVF region: hop 0 still passes, hop 1 drops.
	var pkt packet.Packet
	if _, err := pkt.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	pkt.HVF(1)[0] ^= 0x01

	if _, err := n.routers[0].NewWorker().Process(buf, baseNs); err != nil {
		t.Fatalf("hop 0: %v", err)
	}
	_, err := n.routers[1].NewWorker().Process(buf, baseNs)
	if !errors.Is(err, ErrBadHVF) {
		t.Fatalf("hop 1: %v, want ErrBadHVF", err)
	}
	if n.routers[1].Drops()[ErrBadHVF.Error()] != 1 {
		t.Error("drop not counted")
	}
}

func TestTamperedSizeDropped(t *testing.T) {
	n := newTestnet(t, nil)
	buf := n.buildPacket(t, []byte("xxxx"), baseNs)
	// Grow the packet (e.g., replay with padding): PktSize is authenticated
	// through the HVF, so this must fail.
	grown := append(append([]byte(nil), buf...), 0)
	_, err := n.routers[0].NewWorker().Process(grown, baseNs)
	if err == nil {
		t.Fatal("grown packet accepted")
	}
}

func TestTamperedHeaderFieldsDropped(t *testing.T) {
	n := newTestnet(t, nil)
	for _, tamper := range []struct {
		name string
		mod  func(p *packet.Packet)
	}{
		{"bandwidth", func(p *packet.Packet) { p.Res.BwKbps *= 2 }},
		{"source AS", func(p *packet.Packet) { p.Res.SrcAS = topology.MustIA(9, 9) }},
		{"dst host", func(p *packet.Packet) { p.EER.DstHost++ }},
		{"egress if", func(p *packet.Packet) { p.Path[0].Eg = 9 }},
		{"version", func(p *packet.Packet) { p.Res.Ver++ }},
	} {
		t.Run(tamper.name, func(t *testing.T) {
			buf := n.buildPacket(t, nil, baseNs)
			var pkt packet.Packet
			if _, err := pkt.DecodeFromBytes(buf); err != nil {
				t.Fatal(err)
			}
			tamper.mod(&pkt)
			out := make([]byte, pkt.Length())
			if _, err := pkt.SerializeTo(out); err != nil {
				t.Fatal(err)
			}
			if _, err := n.routers[0].NewWorker().Process(out, baseNs); !errors.Is(err, ErrBadHVF) {
				t.Errorf("tampered %s: %v, want ErrBadHVF", tamper.name, err)
			}
		})
	}
}

func TestExpiredAndStaleDropped(t *testing.T) {
	n := newTestnet(t, nil)
	buf := n.buildPacket(t, nil, baseNs)
	// After expiry.
	expiredAt := (int64(n.res.ExpT) + 1) * 1e9
	if _, err := n.routers[0].NewWorker().Process(buf, expiredAt); !errors.Is(err, ErrExpired) {
		t.Errorf("expired: %v", err)
	}
	// Stale timestamp (beyond freshness window but before expiry).
	if _, err := n.routers[0].NewWorker().Process(buf, baseNs+2*DefaultFreshnessNs); !errors.Is(err, ErrStale) {
		t.Errorf("stale: %v", err)
	}
	// Future timestamp equally rejected.
	if _, err := n.routers[0].NewWorker().Process(buf, baseNs-2*DefaultFreshnessNs); !errors.Is(err, ErrStale) {
		t.Errorf("future: %v", err)
	}
}

func TestReplaySuppressed(t *testing.T) {
	n := newTestnet(t, func(i int, cfg *Config) {
		if i == 1 {
			cfg.Replay = &replay.Config{}
		}
	})
	buf := n.buildPacket(t, nil, baseNs)
	packet.SetCurrHopInPlace(buf, 1) // as hop 0's router would have done
	w := n.routers[1].NewWorker()
	if _, err := w.Process(buf, baseNs); err != nil {
		t.Fatal(err)
	}
	// On-path adversary replays the identical (authentic!) packet.
	cp := append([]byte(nil), buf...)
	packet.SetCurrHopInPlace(cp, 1)
	if _, err := w.Process(cp, baseNs+1e6); !errors.Is(err, ErrReplay) {
		t.Errorf("replay: %v", err)
	}
	// A later packet from the gateway (fresh Ts) passes.
	buf2 := n.buildPacket(t, nil, baseNs+2e6)
	packet.SetCurrHopInPlace(buf2, 1)
	if _, err := w.Process(buf2, baseNs+2e6); err != nil {
		t.Errorf("fresh packet after replay: %v", err)
	}
}

// TestReplayCaughtAnywhereInFreshness: a byte-exact copy of an authentic
// packet is dropped as a replay for as long as it would pass the freshness
// check, and as stale after — also for an original accepted just before a
// bucket boundary and for one stamped ahead of the router's clock. The
// filter used to remember an identifier by arrival time for 200–400 ms and
// forwarded the copies at 450 and 499 ms.
func TestReplayCaughtAnywhereInFreshness(t *testing.T) {
	const window = 200e6 // replay.Config's default bucket width
	for _, tc := range []struct {
		name    string
		stampNs int64 // the gateway's clock when it builds the original
		skewNs  int64 // how far the router's clock lags the Ts on arrival
	}{
		{"mid-bucket", baseNs + window/2, 0},
		{"before a bucket boundary", baseNs + window - 1000, 0},
		{"stamped 100 ms ahead", baseNs + window/2, 100e6},
	} {
		n := newTestnet(t, func(i int, cfg *Config) {
			if i == 1 {
				cfg.Replay = &replay.Config{}
			}
		})
		orig := n.buildPacket(t, nil, tc.stampNs)
		packet.SetCurrHopInPlace(orig, 1)
		var pkt packet.Packet
		if _, err := pkt.DecodeFromBytes(orig); err != nil {
			t.Fatal(err)
		}
		ts := int64(pkt.Ts)
		w := n.routers[1].NewWorker()
		if _, err := w.Process(append([]byte(nil), orig...), ts-tc.skewNs); err != nil {
			t.Fatalf("%s: original: %v", tc.name, err)
		}
		for _, lag := range []int64{1e6, 150e6, 250e6, 350e6, 450e6, 499e6, 501e6} {
			want := ErrReplay
			if lag > DefaultFreshnessNs {
				want = ErrStale
			}
			if _, err := w.Process(append([]byte(nil), orig...), ts+lag); !errors.Is(err, want) {
				t.Errorf("%s: copy %d ms after Ts: %v, want %v", tc.name, lag/1e6, err, want)
			}
		}
	}
}

func TestBlocklistDrops(t *testing.T) {
	n := newTestnet(t, nil)
	buf := n.buildPacket(t, nil, baseNs)
	n.routers[1].Blocklist().Block(n.res.SrcAS, 0)
	if _, err := n.routers[1].NewWorker().Process(buf, baseNs); !errors.Is(err, ErrBlocked) {
		t.Errorf("blocked source: %v", err)
	}
}

func TestOveruseEscalationAndBlock(t *testing.T) {
	var reported []reservation.ID
	n := newTestnet(t, func(i int, cfg *Config) {
		if i == 1 {
			cfg.OFD = ofd.New(ofd.Config{})
			cfg.OnOveruse = func(id reservation.ID) { reported = append(reported, id) }
		}
	})
	// The source AS "fails" to monitor: we bypass the gateway's token
	// bucket by rebuilding packets with raw HVF computation at 10× rate.
	w := n.routers[1].NewWorker()
	var blocked bool
	sigma := sigmaFor(n.secrets[n.ias[1]], &n.res, &n.eer, n.path[1])
	_ = sigma
	now := baseNs
	var overuseSeen bool
	for i := 0; i < 200_000 && !blocked; i++ {
		// 1000-byte packets on 8 Mbps → conforming interval is 1 ms; send
		// every 100 µs (10×).
		now += 1e5
		buf := buildRaw(t, n, 1000, uint64(now), 1)
		_, err := w.Process(buf, now)
		switch {
		case errors.Is(err, ErrOveruse):
			overuseSeen = true
		case errors.Is(err, ErrBlocked):
			blocked = true
		}
	}
	if !overuseSeen {
		t.Fatal("overuse never confirmed")
	}
	if !blocked {
		t.Fatal("source AS never blocklisted")
	}
	if len(reported) == 0 || reported[0] != (reservation.ID{SrcAS: n.res.SrcAS, Num: n.res.ResID}) {
		t.Errorf("reported = %v", reported)
	}
}

// buildRaw forges a syntactically valid packet with correct HVFs for hop
// `hop` (simulating a source AS that signs but does not police), with the
// payload padded to totalSize.
func buildRaw(t testing.TB, n *testnet, totalSize int, ts uint64, hop uint8) []byte {
	t.Helper()
	pkt := packet.Packet{
		Type:    packet.TData,
		CurrHop: hop,
		Res:     n.res,
		EER:     n.eer,
		Ts:      ts,
		Path:    n.path,
		HVFs:    make([]byte, len(n.path)*packet.HVFLen),
	}
	pad := totalSize - pkt.Length()
	if pad > 0 {
		pkt.Payload = make([]byte, pad)
	}
	size := uint32(pkt.Length())
	var hvfIn [packet.HVFInputLen]byte
	packet.HVFInput(&hvfIn, ts, size)
	for i, iaKey := range n.ias {
		sigma := sigmaFor(n.secrets[iaKey], &n.res, &n.eer, n.path[i])
		var out [cryptoutil.MACSize]byte
		cryptoutil.MACOneBlock(cryptoutil.NewBlock(sigma), &out, &hvfIn)
		copy(pkt.HVFs[i*packet.HVFLen:], out[:packet.HVFLen])
	}
	buf := make([]byte, pkt.Length())
	if _, err := pkt.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestControlPacketToCServ(t *testing.T) {
	n := newTestnet(t, nil)
	// A SegR-validated control packet (EE setup over a SegR): token per
	// Eq. 3 with the transit AS's secret.
	res := packet.ResInfo{SrcAS: n.ias[0], ResID: 3, BwKbps: 1000,
		ExpT: uint32(baseNs/1e9) + 300, Ver: 1}
	pkt := packet.Packet{
		Type:    packet.TEESetupReq,
		CurrHop: 1,
		Res:     res,
		Ts:      uint64(baseNs),
		Path:    n.path,
		HVFs:    make([]byte, len(n.path)*packet.HVFLen),
		Payload: []byte("ee-req"),
	}
	for i, iaKey := range n.ias {
		var in [packet.SegAuthLen]byte
		packet.SegAuthInput(&in, &res, n.path[i])
		var out [cryptoutil.MACSize]byte
		cryptoutil.MustCBCMAC(n.secrets[iaKey]).SumInto(&out, in[:])
		copy(pkt.HVFs[i*packet.HVFLen:], out[:packet.HVFLen])
	}
	buf := make([]byte, pkt.Length())
	if _, err := pkt.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	v, err := n.routers[1].NewWorker().Process(buf, baseNs)
	if err != nil {
		t.Fatal(err)
	}
	if v.Action != AControl {
		t.Fatalf("verdict %+v, want AControl", v)
	}
	// Corrupt the validated hop's token: dropped.
	var reparsed packet.Packet
	if _, err := reparsed.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	reparsed.HVF(1)[0] ^= 0xFF // aliases buf
	if _, err := n.routers[1].NewWorker().Process(buf, baseNs); !errors.Is(err, ErrBadHVF) {
		t.Errorf("corrupted token: %v", err)
	}
}

func TestSegSetupReqPassesWithoutHVF(t *testing.T) {
	n := newTestnet(t, nil)
	pkt := packet.Packet{
		Type:    packet.TSegSetupReq,
		CurrHop: 1,
		Res:     packet.ResInfo{SrcAS: n.ias[0], ResID: 9, ExpT: uint32(baseNs/1e9) + 300},
		Ts:      uint64(baseNs),
		Path:    n.path,
		HVFs:    make([]byte, len(n.path)*packet.HVFLen),
	}
	buf := make([]byte, pkt.Length())
	if _, err := pkt.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	v, err := n.routers[1].NewWorker().Process(buf, baseNs)
	if err != nil || v.Action != AControl {
		t.Fatalf("initial SegReq: %v %+v", err, v)
	}
}

func TestEERenewalPacketToCServ(t *testing.T) {
	// An EER renewal travels over the existing EER (§4.4): it is validated
	// exactly like a data packet (two-step σ MAC) but handed to the CServ.
	n := newTestnet(t, nil)
	pkt := packet.Packet{
		Type:    packet.TEERenewReq,
		CurrHop: 1,
		Res:     n.res,
		EER:     n.eer,
		Ts:      uint64(baseNs),
		Path:    n.path,
		HVFs:    make([]byte, len(n.path)*packet.HVFLen),
		Payload: []byte("renew-req"),
	}
	var in [packet.HVFInputLen]byte
	packet.HVFInput(&in, pkt.Ts, uint32(pkt.Length()))
	for i, iaKey := range n.ias {
		sigma := sigmaFor(n.secrets[iaKey], &n.res, &n.eer, n.path[i])
		var out [cryptoutil.MACSize]byte
		cryptoutil.MACOneBlock(cryptoutil.NewBlock(sigma), &out, &in)
		copy(pkt.HVFs[i*packet.HVFLen:], out[:packet.HVFLen])
	}
	buf := make([]byte, pkt.Length())
	if _, err := pkt.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	v, err := n.routers[1].NewWorker().Process(buf, baseNs)
	if err != nil {
		t.Fatal(err)
	}
	if v.Action != AControl {
		t.Fatalf("verdict %+v, want AControl", v)
	}
	// A forged renewal (bad σ-derived HVF) is dropped.
	buf[47] ^= 0x01 // flip the low Ts bit: still fresh, HVFs no longer match
	if _, err := n.routers[1].NewWorker().Process(buf, baseNs); !errors.Is(err, ErrBadHVF) {
		t.Errorf("forged renewal: %v", err)
	}
}

func TestGarbageDropped(t *testing.T) {
	n := newTestnet(t, nil)
	if _, err := n.routers[0].NewWorker().Process([]byte{1, 2, 3}, baseNs); err == nil {
		t.Error("garbage accepted")
	}
}
