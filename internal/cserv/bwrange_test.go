package cserv

import (
	"errors"
	"testing"

	"colibri/internal/admission"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// wideFabric is a TwoISD fabric whose links and SegRs carry more than 2³²
// kbps, so that an EER of MaxEERKbps is granted in full and one kbps more is
// refused for its width alone.
func wideFabric(t *testing.T) (f *fabric, up, core reservation.ID) {
	t.Helper()
	f = newFabric(t, topology.TwoISD(topology.LinkSpec{CapacityKbps: 1 << 40}), highRate)
	u, c, _ := f.setupAllSegRs(t, 1<<36)
	return f, u.ID, c.ID
}

// allBooks is booksOf at every service of f.
func allBooks(f *fabric, up, core reservation.ID) map[topology.IA]hopBooks {
	out := make(map[topology.IA]hopBooks)
	for iaKey, s := range f.services {
		out[iaKey] = booksOf(s, up, core)
	}
	return out
}

// sameBooks fails t unless every service of f holds the books it held in
// before.
func sameBooks(t *testing.T, step string, f *fabric, up, core reservation.ID, before map[topology.IA]hopBooks) {
	t.Helper()
	for iaKey, b := range allBooks(f, up, core) {
		if d := before[iaKey].diff(b); d != "" {
			t.Fatalf("%s changed the books at %s: %s", step, iaKey, d)
		}
	}
}

// TestEERBandwidthAt32Bits: σ, the gateway and the routers carry an EER's
// bandwidth in 32 bits, so MaxEERKbps = 2³²−1 is the most an EER may have. A
// setup (tag 4), a renewal (tag 5) and a wave item (tag 7) asking for it are
// granted it, and σ covers it; asking for 2³² is refused before any hop admits
// anything — with ErrBandwidthRange at the initiator, by every hop a signed
// request reaches over the wire, and per item in a wave, whose other items
// are unaffected.
func TestEERBandwidthAt32Bits(t *testing.T) {
	const over = MaxEERKbps + 1
	f, up, core := wideFabric(t)
	src := f.services[ia(1, 11)]

	// Tag 4.
	before := allBooks(f, up, core)
	if _, err := src.RequestEER(1, 2, ia(2, 11), over); !errors.Is(err, ErrBandwidthRange) {
		t.Fatalf("setup of 2³² kbps: %v, want ErrBandwidthRange", err)
	}
	sameBooks(t, "a setup of 2³² kbps", f, up, core, before)
	g, err := src.RequestEER(1, 2, ia(2, 11), MaxEERKbps)
	if err != nil {
		t.Fatalf("setup of 2³²−1 kbps: %v", err)
	}
	checkWidest := func(step string, g *EERGrant) {
		t.Helper()
		if g.Res.BwKbps != MaxEERKbps {
			t.Fatalf("%s: granted %d kbps, want %d", step, g.Res.BwKbps, uint64(MaxEERKbps))
		}
		for idx := range g.PathHops {
			if bw, _, _, ok := f.eerRecord(g, idx); !ok || bw != MaxEERKbps {
				t.Fatalf("%s: hop %d records %d kbps (present %v)", step, idx, bw, ok)
			}
		}
		checkHopAuths(t, f, g)
	}
	checkWidest("setup", g)

	// Tag 5.
	f.clock.Add(1)
	before = allBooks(f, up, core)
	if _, err := src.RenewEER(g, over); !errors.Is(err, ErrBandwidthRange) {
		t.Fatalf("renewal to 2³² kbps: %v, want ErrBandwidthRange", err)
	}
	sameBooks(t, "a renewal to 2³² kbps", f, up, core, before)
	if g, err = src.RenewEER(g, MaxEERKbps); err != nil {
		t.Fatalf("renewal to 2³²−1 kbps: %v", err)
	}
	checkWidest("renewal", g)

	// Tags 5 and 7 over the wire, signed by the source: every hop past the
	// first refuses 2³² kbps before its admission leg runs. (Hop 0 refuses any
	// request over the wire.)
	f.clock.Add(1)
	before = allBooks(f, up, core)
	solo := renewalOf(g, g.Res.Ver+1, over, f.now())
	wave := forgedWave(g, []EEBatchItem{{ID: g.ID, Ver: g.Res.Ver + 1, BwKbps: over,
		ExpT: f.now() + reservation.EERLifetimeSeconds, SrcHost: g.EER.SrcHost, DstHost: g.EER.DstHost}})
	soloMsg, waveMsg := signSolo(t, src, solo), signWave(t, src, wave)
	for idx := 1; idx < len(g.PathHops); idx++ {
		hop := f.services[g.PathHops[idx].IA]
		out, err := hop.HandleMsg(soloMsg)
		if code, at := answerOf(out); err != nil || code != RefusedBwRange || int(at) != idx {
			t.Fatalf("hop %d answers a renewal to 2³² kbps: %v at %d (%v)", idx, code, at, err)
		}
		out, err = hop.HandleMsg(waveMsg)
		if err != nil {
			t.Fatalf("hop %d: wave: %v", idx, err)
		}
		resp, err := UnmarshalEEBatchRenewResp(out)
		if err != nil || resp.Refusal != Granted || resp.Status[0] != RefusedBwRange {
			t.Fatalf("hop %d answers a wave item of 2³² kbps: %+v (%v)", idx, resp, err)
		}
	}
	sameBooks(t, "requests of 2³² kbps over the wire", f, up, core, before)

	// Tag 7: one item of 2³² kbps and one of 2³²−1 in a wave.
	g2, err := src.RequestEER(3, 4, ia(2, 11), 1_000)
	if err != nil {
		t.Fatal(err)
	}
	f.clock.Add(1)
	grants, errs := src.RenewEERBatch([]*EERGrant{g, g2}, []uint64{over, MaxEERKbps})
	if !errors.Is(errs[0], ErrBandwidthRange) || !errors.Is(errs[0], ErrRefused) {
		t.Fatalf("wave item of 2³² kbps: %v, want ErrRefused and ErrBandwidthRange", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("wave item of 2³²−1 kbps: %v", errs[1])
	}
	checkWidest("wave item", grants[1])
	for idx := range g.PathHops {
		if _, ver, _, ok := f.eerRecord(g, idx); !ok || ver != g.Res.Ver {
			t.Fatalf("hop %d: the refused item's record is at version %d (present %v), want %d", idx, ver, ok, g.Res.Ver)
		}
	}
}

// TestCPlaneRefusesWideEERs: the engine keeps an EER's bandwidth in 32 bits
// and refuses, with ErrBandwidthRange and its books untouched, any setup or
// renewal asking for more — whoever calls it.
func TestCPlaneRefusesWideEERs(t *testing.T) {
	clk := newCPClock(1000)
	cp, err := NewCPlane(CPlaneConfig{AS: cplaneAS(t, 4, 1<<40), Split: admission.DefaultSplit, Shards: 4, Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	seg := segReq(1, 50, 1, 2, 1<<36)
	if _, err := cp.AddSegR(seg); err != nil {
		t.Fatal(err)
	}
	expT := clk.now() + 16
	if err := cp.SetupEER(eid(1), seg.ID, MaxEERKbps+1, expT); !errors.Is(err, ErrBandwidthRange) {
		t.Fatalf("setup of 2³² kbps: %v", err)
	}
	auditBooks(t, cp, "a setup of 2³² kbps")
	if err := cp.SetupEER(eid(1), seg.ID, MaxEERKbps, expT); err != nil {
		t.Fatalf("setup of 2³²−1 kbps: %v", err)
	}
	clk.step(1)
	if _, err := cp.RenewEER(eid(1), seg.ID, MaxEERKbps+1, expT+1); !errors.Is(err, ErrBandwidthRange) {
		t.Fatalf("renewal to 2³² kbps: %v", err)
	}
	if bw, _, exp, ok := cp.LookupEER(eid(1), seg.ID); !ok || bw != MaxEERKbps || exp != expT {
		t.Fatalf("after the refused renewal the record holds %d kbps until %d (present %v)", bw, exp, ok)
	}
	auditBooks(t, cp, "a renewal to 2³² kbps")
}
