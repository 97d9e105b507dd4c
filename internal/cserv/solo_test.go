// solo_test.go — what a solo EER request (tags 4/5) must keep true while it is
// encoded once: allocations stay pinned, every byte on every link is what the
// materialised structs would marshal to, the decoders accept only canonical
// input and bound what they allocate, and the scratch a service lends to
// concurrent requests never leaks from one into another.
package cserv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// renewalOf is the renewal request of g for version ver, as RenewEER builds it.
func renewalOf(g *EERGrant, ver uint16, bwKbps uint64, now uint32) *EESetupReq {
	return &EESetupReq{
		ID: g.ID, SegIDs: g.SegIDs, Splits: g.Splits, Path: g.PathHops,
		BwKbps: bwKbps, ExpT: now + reservation.EERLifetimeSeconds, Ver: ver,
		SrcHost: g.EER.SrcHost, DstHost: g.EER.DstHost, Renewal: true, AccumKbps: bwKbps,
	}
}

// signFor returns the MACs src puts on body towards every AS of path.
func signFor(t testing.TB, src *Service, path []PathHop, body []byte) (macs [][cryptoutil.MACSize]byte) {
	t.Helper()
	if _, err := src.signPath(path, body, &macs); err != nil {
		t.Fatal(err)
	}
	return macs
}

// macCheck is authHop's MAC check alone — no rate-limit token taken, nothing
// counted: whether macs[idx] is src's MAC of body towards hop.
func macCheck(hop *Service, src topology.IA, body []byte, macs [][cryptoutil.MACSize]byte, idx int) bool {
	return hop.ownCrypto(src, hop.clock()).verify(body, macOf(macs, idx))
}

// signSolo signs req as its source would and returns the message.
func signSolo(t testing.TB, src *Service, req *EESetupReq) []byte {
	t.Helper()
	req.Macs = signFor(t, src, req.Path, req.Body())
	return req.Marshal()
}

// TestSoloAllocBudget pins the allocations of a 5-hop setup and renewal
// through the CPlane fabric, and of a transit hop's HandleMsg with the rest of
// the path behind it, so the gain cannot silently rot. What is left of either
// request is what leaves it: the grant, its σs and the last hop's response
// buffer (the only allocation a handler makes). The grant's chain is shared —
// a setup's with the directory's memo, a renewal's with the grant it renews —
// and its nonces come from the scratch's counter.
func TestSoloAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := cpFabric(t, 8, highRate)
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	g := requestEERs(t, src, 1, 100)[0]

	const runs = 200
	setup := testing.AllocsPerRun(runs, func() {
		if _, err := src.RequestEER(7, 8, ia(2, 11), 100); err != nil {
			t.Fatal(err)
		}
	})
	renew := testing.AllocsPerRun(runs, func() {
		f.clock.Add(1)
		ng, err := src.RenewEER(g, 100)
		if err != nil {
			t.Fatal(err)
		}
		g = ng
	})
	// One fresh renewal per second, signed beforehand, straight into hop 1.
	hop1 := f.services[g.PathHops[1].IA]
	msgs := make([][]byte, runs+1)
	for i := range msgs {
		msgs[i] = signSolo(t, src, renewalOf(g, g.Res.Ver+1+uint16(i), 100, f.clock.Load()+1+uint32(i)))
	}
	next := 0
	transit := testing.AllocsPerRun(runs, func() {
		f.clock.Add(1)
		resp, err := hop1.HandleMsg(msgs[next])
		if err != nil || resp[0] != byte(Granted) {
			t.Fatalf("transit renewal %d: %v %x", next, err, resp)
		}
		next++
	})
	t.Logf("allocations: setup %.1f, renewal %.1f, transit HandleMsg %.1f", setup, renew, transit)
	if setup > 3 {
		t.Errorf("a 5-hop setup allocates %.1f times, budget 3", setup)
	}
	if renew > 3 {
		t.Errorf("a 5-hop renewal allocates %.1f times, budget 3", renew)
	}
	if transit > 1 {
		t.Errorf("a transit HandleMsg allocates %.1f times, budget 1 (the last hop's response)", transit)
	}
}

// TestRefusalAllocBudget pins the allocations of a refused transit HandleMsg:
// one, the response, as for a granted one — nothing is formatted or copied on
// the way back. When refusals were text, a renewal throttled at hop 1
// allocated 6, a last-hop veto relayed back through hops 1–3 5, and a wave
// refused at hop 1 and one refused at the last hop and relayed 8 and 31; a
// wave granted end to end is held to the same budget. A SegR activation
// refused at hop 1 for an unknown SegR or for no pending version allocated
// 16 and 10 while it decoded into fresh structs, MACed a re-encoded body and
// copied the SegR's record to decide. A SegR setup or renewal decodes into
// the scratch too: while it decoded into a struct of its own, a forged setup
// allocated 5 (6 while the MAC was checked over a re-encoding), one refused
// by hop 1's admission 6, and a renewal of a SegR hop 1 does not hold 12.
func TestRefusalAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := cpFabric(t, 8, func(iaKey topology.IA, cfg *Config) {
		highRate(iaKey, cfg)
		cfg.DstApprove = refuseHost99
	})
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	gs := requestEERs(t, src, 3, 100)
	f.clock.Add(1)
	g, err := src.RenewEER(gs[0], 100)
	if err != nil {
		t.Fatal(err)
	}
	hop1 := f.services[g.PathHops[1].IA]
	// A second renewal within the second reaches hop 1 already renewed there.
	throttled := signSolo(t, src, renewalOf(g, g.Res.Ver+1, 100, f.now()))
	vetoed := signSolo(t, src, &EESetupReq{ID: reservation.ID{SrcAS: src.ia, Num: 1 << 20},
		SegIDs: g.SegIDs, Splits: g.Splits, Path: g.PathHops, BwKbps: 100, AccumKbps: 100,
		ExpT: f.now() + reservation.EERLifetimeSeconds, Ver: 1, SrcHost: 7, DstHost: 99})
	attacker := f.services[ia(2, 1)]
	crossSource := signWave(t, attacker, forgedWave(g, []EEBatchItem{
		{ID: reservation.ID{SrcAS: attacker.ia, Num: 1}, Ver: 1, BwKbps: 1, ExpT: f.now() + 2},
		{ID: g.ID, Ver: g.Res.Ver + 1, BwKbps: 1, ExpT: f.now() + 2}}))
	// Activations of src's up-SegR through hop 1: of an ID hop 1 does not
	// hold, and of a version the SegR has no pending one of.
	up, err := src.cp.GetSegR(g.SegIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	activation := func(id reservation.ID, ver uint16) []byte {
		req := &SegActivateReq{ID: id, Ver: ver, Path: HopsFromSegment(up.Seg)}
		req.Macs = signFor(t, src, req.Path, req.Body())
		return req.Marshal()
	}
	unknownSegR := activation(reservation.ID{SrcAS: src.ia, Num: 1 << 20}, 1)
	noPending := activation(up.ID, up.Active.Ver+1)
	// A SegR setup of src's up-segment whose MAC towards hop 1 is forged.
	forgedSeg := &SegSetupReq{ID: reservation.ID{SrcAS: src.ia, Num: 1 << 21}, SegType: segment.Up,
		Path: HopsFromSegment(up.Seg), MaxKbps: 100, ExpT: f.now() + 300, Ver: 1, AccumKbps: 100}
	forgedSeg.Macs = signFor(t, src, forgedSeg.Path, forgedSeg.Body())
	forgedSeg.Macs[1][0] ^= 1
	// A SegR renewal of an ID hop 1 does not hold, and a setup of src's
	// up-SegR, which hop 1 holds, at a version that is no retry.
	segReq := func(id reservation.ID, ver uint16, renewal bool) []byte {
		req := &SegSetupReq{ID: id, SegType: segment.Up, Path: HopsFromSegment(up.Seg), MaxKbps: 100,
			ExpT: f.now() + 300, Ver: ver, Renewal: renewal, AccumKbps: 100}
		req.Macs = signFor(t, src, req.Path, req.Body())
		return req.Marshal()
	}
	unknownRenewal := segReq(reservation.ID{SrcAS: src.ia, Num: 1 << 22}, 2, true)
	existingSetup := segReq(up.ID, up.Active.Ver+5, false)
	lastUnauthentic := signedWave(t, src, gs[1:2])
	lastUnauthentic.Macs[len(lastUnauthentic.Macs)-1][0] ^= 1
	// The granted wave renews gs[2] to one fresh version per run.
	const runs = 100
	granted := make([][]byte, runs+1)
	for i := range granted {
		w := signedWave(t, src, gs[2:3])
		w.Items[0].Ver += uint16(i)
		w.Items[0].ExpT += uint32(i)
		granted[i] = signWave(t, src, w)
	}
	next := 0
	for _, tc := range []struct {
		name string
		msg  func() []byte
		want Refusal
		at   uint8
		tick bool // a second passes before each run
	}{
		{"a solo renewal throttled at hop 1", func() []byte { return throttled }, RefusedThrottled, 1, false},
		{"a solo setup vetoed by the last hop", func() []byte { return vetoed }, RefusedVeto, uint8(len(g.PathHops) - 1), false},
		{"a cross-source wave", func() []byte { return crossSource }, RefusedMalformed, 1, false},
		{"a wave unauthentic at the last hop", lastUnauthentic.Marshal, RefusedAuth, uint8(len(g.PathHops) - 1), false},
		{"an activation of an unknown SegR", func() []byte { return unknownSegR }, RefusedUnknownSegR, 1, false},
		{"an activation with no pending version", func() []byte { return noPending }, RefusedNoPending, 1, false},
		{"a granted wave", func() []byte { next++; return granted[next-1] }, Granted, 0, true},
		// Decoded into the scratch, the MAC checked over the bytes received:
		// the refusal alone (5 allocations while the request decoded into a
		// struct of its own).
		{"a forged SegR setup", forgedSeg.Marshal, RefusedAuth, 1, false},
		{"a SegR renewal of a SegR hop 1 does not hold", func() []byte { return unknownRenewal }, RefusedUnknownSegR, 1, false},
		{"a SegR setup refused by hop 1's admission", func() []byte { return existingSetup }, RefusedSegRExists, 1, false},
	} {
		msgs := make([][]byte, runs+1)
		for i := range msgs {
			msgs[i] = tc.msg()
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if tc.tick {
				f.clock.Add(1)
			}
			out, err := hop1.HandleMsg(msgs[i])
			i++
			if code, at := answerOf(out); err != nil || code != tc.want || at != tc.at {
				t.Fatalf("%s: %v at hop %d, %v; want %v at hop %d", tc.name, code, at, err, tc.want, tc.at)
			}
			if tc.want == Granted && Refusal(out[1+1+4+8]) != Granted { // the item's status
				t.Fatalf("%s: the item is %v", tc.name, Refusal(out[1+1+4+8]))
			}
		})
		if allocs != 1 {
			t.Errorf("%s: a transit HandleMsg allocates %.1f times, want 1", tc.name, allocs)
		}
	}
}

// TestSegRAllocBudget pins the allocations of a granted SegR setup's and
// renewal's transit HandleMsg, with the rest of the 3-hop up-segment behind
// it: a setup's new record and ledger at each of the two hops and the last
// hop's answer, a renewal's pending version at each and the answer. While
// each hop decoded into a struct of its own, copied the SegR's record to
// detect a retry, kept a renewal's undo as closures, re-encoded the request
// to forward it and allocated and marshalled an answer of its own, they
// allocated 37 and 27.
func TestSegRAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := cpFabric(t, 8, highRate)
	up, _, _ := f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	path := HopsFromSegment(up.Seg)
	hop1 := f.services[path[1].IA]
	const runs = 100
	setups, renewals := make([][]byte, runs+1), make([][]byte, runs+1)
	for i := range setups {
		req := &SegSetupReq{ID: reservation.ID{SrcAS: src.ia, Num: 1<<22 + uint32(i)}, SegType: up.SegType, Path: path,
			MaxKbps: 100, AccumKbps: 100, ExpT: f.now() + reservation.SegRLifetimeSeconds, Ver: 1}
		req.Macs = signFor(t, src, req.Path, req.Body())
		setups[i] = req.Marshal()
		req = &SegSetupReq{ID: up.ID, SegType: up.SegType, Path: path, MaxKbps: 1_000_000, AccumKbps: 1_000_000,
			ExpT: f.now() + reservation.SegRLifetimeSeconds, Ver: up.Active.Ver + 1 + uint16(i), Renewal: true}
		req.Macs = signFor(t, src, req.Path, req.Body())
		renewals[i] = req.Marshal()
	}
	for _, tc := range []struct {
		name   string
		msgs   [][]byte
		budget float64
	}{{"setup", setups, 9}, {"renewal", renewals, 3}} {
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			out, err := hop1.HandleMsg(tc.msgs[i])
			i++
			if code, at := answerOf(out); err != nil || code != Granted {
				t.Fatalf("SegR %s: %v at hop %d, %v", tc.name, code, at, err)
			}
		})
		if allocs > tc.budget {
			t.Errorf("a granted SegR %s's transit HandleMsg allocates %.1f times, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// TestSoloCodecCanonicalOnly: the solo decoders refuse what their encoders
// would not have produced, and bound their counts before sizing anything.
func TestSoloCodecCanonicalOnly(t *testing.T) {
	req := &EESetupReq{
		ID: reservation.ID{SrcAS: ia(1, 11), Num: 7}, SegIDs: make([]reservation.ID, 3), Splits: []uint8{2, 3},
		Path: make([]PathHop, 5), BwKbps: 9, ExpT: 10, Ver: 1, Macs: make([][16]byte, 5), AccumKbps: 9,
	}
	good := req.Marshal()
	if _, err := UnmarshalEESetupReq(good); err != nil {
		t.Fatal(err)
	}
	flagAt := len(req.Body()) - 1
	mutate := func(fn func(m []byte) []byte) []byte { return fn(append([]byte(nil), good...)) }
	for name, msg := range map[string][]byte{
		"setup tag, renewal flag": mutate(func(m []byte) []byte { m[flagAt] = 1; return m }),
		"renewal tag, setup flag": mutate(func(m []byte) []byte { m[0] = tagEERenew; return m }),
		"flag 2":                  mutate(func(m []byte) []byte { m[flagAt] = 2; return m }),
		"trailing byte":           mutate(func(m []byte) []byte { return append(m, 0) }),
	} {
		if _, err := UnmarshalEESetupReq(msg); !errors.Is(err, ErrNotCanonical) {
			t.Errorf("request with %s: err = %v, want ErrNotCanonical", name, err)
		}
	}
	resp := (&EESetupResp{FinalKbps: 1, EncAuths: [][]byte{nil, {1, 2}}}).Marshal()
	if _, err := UnmarshalEESetupResp(resp); err != nil {
		t.Fatal(err)
	}
	for name, msg := range map[string][]byte{
		"unknown refusal": append([]byte{byte(numRefusals)}, resp[1:]...),
		"trailing byte":   append(append([]byte(nil), resp...), 0),
	} {
		if _, err := UnmarshalEESetupResp(msg); !errors.Is(err, ErrNotCanonical) {
			t.Errorf("response with %s: err = %v, want ErrNotCanonical", name, err)
		}
	}
	// Counts no path can have are refused before anything is sized by them.
	many := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}
	var err error
	if got, counted := allocatedBy(func() { _, err = UnmarshalEESetupResp(many) }); err == nil || counted && got > 1024 {
		t.Errorf("response claiming 65535 authenticators: err = %v after allocating %d bytes", err, got)
	}
	segResp := append((&SegSetupResp{}).Marshal()[:10], 0xff, 0xff)
	if got, counted := allocatedBy(func() { _, err = UnmarshalSegSetupResp(segResp) }); err == nil || counted && got > 1024 {
		t.Errorf("response claiming 65535 tokens: err = %v after allocating %d bytes", err, got)
	}
}

// TestOverCoveredHopRefused: a chain whose splits make three segment
// reservations cover one hop is refused; the parent indexed a two-entry array
// with it and crashed the on-path CServ (the source signs whatever it likes).
func TestOverCoveredHopRefused(t *testing.T) {
	f := cpFabric(t, 4, nil)
	up, _, _ := f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	g := requestEERs(t, src, 1, 100)[0]
	req := renewalOf(g, 2, 100, f.now())
	req.SegIDs, req.Splits = []reservation.ID{up.ID, up.ID, up.ID}, []uint8{1, 1}
	out, err := f.services[g.PathHops[1].IA].HandleMsg(signSolo(t, src, req))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := UnmarshalEESetupResp(out); err != nil || resp.Refusal != RefusedCover {
		t.Fatalf("response %+v, %v; want a refusal naming the three covering reservations", resp, err)
	}
	// The same chain in a renewal wave: one resolution of the covering SegRs
	// serves both handlers.
	if out, err = f.services[g.PathHops[1].IA].HandleMsg(signWave(t, src, waveOf(req))); err != nil {
		t.Fatal(err)
	}
	if resp, err := UnmarshalEEBatchRenewResp(out); err != nil || resp.Refusal != RefusedCover {
		t.Fatalf("wave response %+v, %v; want a refusal naming the three covering reservations", resp, err)
	}
}

// FuzzEESetupCodec fuzzes the solo request and response decoders (ROADMAP
// robustness (a)). No input panics or allocates beyond its size class. What
// decodes re-encodes to exactly the bytes it was decoded from — which is what
// licenses a hop to authenticate and forward the bytes it received — and
// decodes the same into a fresh struct and into used scratch. Flipping any
// MAC-covered bit of a signed request makes it undecodable or unauthentic at
// every hop, and rewriting the accumulator changes neither body nor verdict.
func FuzzEESetupCodec(f *testing.F) {
	fab := cpFabric(f, 4, highRate)
	fab.setupAllSegRs(f, 100_000)
	src := fab.services[ia(1, 11)]
	// A real setup and renewal, as hop 0 put them on the wire.
	var captured [][]byte
	inner := src.transport
	src.transport = captureTransport{inner, func(msg []byte) { captured = append(captured, bytes.Clone(msg)) }}
	g := requestEERs(f, src, 1, 1_000)[0]
	fab.clock.Add(1)
	if _, err := src.RenewEER(g, 1_000); err != nil {
		f.Fatal(err)
	}
	src.transport = inner
	if len(captured) != 2 || captured[0][0] != tagEESetup || captured[1][0] != tagEERenew {
		f.Fatalf("captured %d messages", len(captured))
	}
	type signed struct {
		msg  []byte
		body int
	}
	var signedMsgs []signed
	for _, msg := range captured {
		req, err := UnmarshalEESetupReq(msg)
		if err != nil {
			f.Fatal(err)
		}
		signedMsgs = append(signedMsgs, signed{msg, req.bodyLen})
		f.Add(msg, uint16(77), uint64(5))
	}
	path := g.PathHops
	f.Add((&EESetupResp{FinalKbps: 1}).Marshal(), uint16(0), uint64(0)) // the short-response crasher
	f.Add((&EESetupResp{Refusal: RefusedBandwidth, FailedAt: 2}).Marshal(), uint16(1), uint64(1))
	mismatch := bytes.Clone(captured[0])
	mismatch[0] = tagEERenew
	f.Add(mismatch, uint16(2), uint64(2))
	f.Add(append(bytes.Clone(captured[1]), 0), uint16(3), uint64(1<<63))
	// A signed renewal of 2³² kbps, which every hop refuses (TestEERBandwidthAt32Bits).
	f.Add(signSolo(f, src, renewalOf(g, g.Res.Ver+2, MaxEERKbps+1, fab.now())), uint16(6), uint64(MaxEERKbps))

	var scratch EESetupReq
	var scratchResp EESetupResp
	f.Fuzz(func(t *testing.T, data []byte, flip uint16, accum uint64) {
		var req *EESetupReq
		var resp *EESetupResp
		var reqErr, respErr error
		got, counted := allocatedBy(func() {
			req, reqErr = UnmarshalEESetupReq(data)
			resp, respErr = UnmarshalEESetupResp(data)
		})
		if counted && got > 16<<10+4*uint64(len(data)) {
			t.Fatalf("a %d-byte message made the decoders allocate %d bytes", len(data), got)
		}
		if err := scratch.unmarshal(data); (err == nil) != (reqErr == nil) {
			t.Fatalf("fresh decode: %v, scratch decode: %v", reqErr, err)
		}
		if reqErr == nil {
			if enc := req.Marshal(); !bytes.Equal(enc, data) {
				t.Fatalf("request re-encodes to other bytes:\n%x\n%x", data, enc)
			}
			if !bytes.Equal(req.Body(), data[:req.bodyLen]) {
				t.Fatal("the retained body is not Body()")
			}
			s := &scratch
			if req.ID != s.ID || !slices.Equal(req.SegIDs, s.SegIDs) || !slices.Equal(req.Splits, s.Splits) ||
				!slices.Equal(req.Path, s.Path) || req.BwKbps != s.BwKbps || req.ExpT != s.ExpT || req.Ver != s.Ver ||
				req.SrcHost != s.SrcHost || req.DstHost != s.DstHost || req.Renewal != s.Renewal ||
				!slices.Equal(req.Macs, s.Macs) || req.AccumKbps != s.AccumKbps || req.bodyLen != s.bodyLen {
				t.Fatalf("fresh and scratch decode differ:\n%+v\n%+v", req, s)
			}
		}
		if err := scratchResp.unmarshal(data); (err == nil) != (respErr == nil) {
			t.Fatalf("fresh response decode: %v, scratch decode: %v", respErr, err)
		}
		if respErr == nil {
			if enc := resp.Marshal(); !bytes.Equal(enc, data) {
				t.Fatalf("response re-encodes to other bytes:\n%x\n%x", data, enc)
			}
		}
		for _, sg := range signedMsgs {
			// One flipped bit in the MAC-covered part; then only a new accumulator.
			m := bytes.Clone(sg.msg)
			m[int(flip>>3)%sg.body] ^= 1 << (flip & 7)
			tail := bytes.Clone(sg.msg)
			binary.BigEndian.PutUint64(tail[len(tail)-8:], accum)
			var flipped, retailed EESetupReq
			flipErr := flipped.unmarshal(m)
			if err := retailed.unmarshal(tail); err != nil || !bytes.Equal(retailed.wire[:retailed.bodyLen], sg.msg[:sg.body]) {
				t.Fatalf("a new accumulator changed the body (%v)", err)
			}
			for idx := 1; idx < len(path); idx++ {
				hop := fab.services[path[idx].IA]
				if flipErr == nil && macCheck(hop, src.ia, flipped.wire[:flipped.bodyLen], flipped.Macs, idx) {
					t.Fatalf("bit %d of body byte %d flipped and hop %d still authenticates the request", flip&7, int(flip>>3)%sg.body, idx)
				}
				if !macCheck(hop, src.ia, retailed.wire[:retailed.bodyLen], retailed.Macs, idx) {
					t.Fatalf("hop %d refuses the request with a new accumulator", idx)
				}
			}
		}
	})
}

// captureTransport hands every message it forwards to keep first.
type captureTransport struct {
	inner Transport
	keep  func(msg []byte)
}

func (c captureTransport) Call(dst topology.IA, msg []byte) ([]byte, error) {
	c.keep(msg)
	return c.inner.Call(dst, msg)
}

// wireRecorder sits in every service's transport during TestSoloWireDifferential,
// under the RetryTransport: it checks each solo request and response against
// want, the request the test knows the source to be making, and injects the
// faults the mix asks for.
type wireRecorder struct {
	t    *testing.T
	f    *fabric
	want *EESetupReq
	// lose[ia] responses from ia are dropped after ia handled the request;
	// down[ia] is unreachable.
	lose map[topology.IA]int
	down map[topology.IA]bool

	requests, grants, refusals, lost int
}

type recTransport struct {
	rec   *wireRecorder
	from  topology.IA
	inner Transport
}

func (r recTransport) Call(dst topology.IA, msg []byte) ([]byte, error) {
	rec := r.rec
	if msg[0] != tagEESetup && msg[0] != tagEERenew {
		return r.inner.Call(dst, msg)
	}
	if rec.down[dst] {
		return nil, errors.New("link down")
	}
	sent := bytes.Clone(msg)
	resp, err := r.inner.Call(dst, msg)
	if !bytes.Equal(sent, msg) {
		rec.t.Errorf("%s modified the request it was handed", dst)
	}
	if err != nil {
		return nil, err
	}
	rec.check(r.from, dst, sent, bytes.Clone(resp))
	if rec.lose[dst] > 0 {
		rec.lose[dst]--
		rec.lost++
		return nil, errors.New("response lost")
	}
	return resp, nil
}

func (rec *wireRecorder) check(from, dst topology.IA, sent, resp []byte) {
	t, f := rec.t, rec.f
	src := f.services[ia(1, 11)]
	rec.requests++
	got, err := UnmarshalEESetupReq(sent)
	if err != nil {
		t.Fatalf("%s → %s: request does not decode: %v", from, dst, err)
	}
	// The request: the materialised struct with this hop's accumulator.
	want := *rec.want
	if !want.Renewal {
		want.ID = got.ID // a setup draws its id inside RequestEER
	}
	want.AccumKbps = got.AccumKbps
	if enc := signSolo(t, src, &want); !bytes.Equal(enc, sent) {
		t.Fatalf("%s → %s: request on the wire is not the marshaled struct:\n%x\n%x", from, dst, sent, enc)
	}
	idx := slices.IndexFunc(want.Path, func(h PathHop) bool { return h.IA == from })
	n := len(want.Path)
	if idx < 0 || idx+1 >= n || want.Path[idx+1].IA != dst || got.AccumKbps > want.BwKbps {
		t.Fatalf("%s → %s: hop %d of %d forwards accumulator %d of %d kbps", from, dst, idx, n, got.AccumKbps, want.BwKbps)
	}
	// The response: the parent's layout, field for field.
	r, err := UnmarshalEESetupResp(resp)
	if err != nil {
		t.Fatalf("%s → %s: response does not decode: %v", from, dst, err)
	}
	if enc := r.Marshal(); !bytes.Equal(enc, resp) {
		t.Fatalf("%s → %s: response is not the marshaled struct:\n%x\n%x", from, dst, resp, enc)
	}
	if r.Refusal != Granted {
		rec.refusals++
		if len(r.EncAuths) != 0 || r.FinalKbps != 0 || int(r.FailedAt) <= idx {
			t.Fatalf("%s → %s: refusal %+v", from, dst, r)
		}
		return
	}
	rec.grants++
	if r.FailedAt != 0 || r.FinalKbps > got.AccumKbps || len(r.EncAuths) != n ||
		len(resp) != eeRespFixedLen+2*n+(n-1-idx)*sealedAuthLen {
		t.Fatalf("%s → %s: grant %+v (%d bytes) for hop %d of %d", from, dst, r, len(resp), idx, n)
	}
	res := packet.ResInfo{SrcAS: want.ID.SrcAS, ResID: want.ID.Num, BwKbps: uint32(r.FinalKbps), ExpT: want.ExpT, Ver: want.Ver}
	eer := packet.EERInfo{SrcHost: want.SrcHost, DstHost: want.DstHost}
	for j, ea := range r.EncAuths {
		if j <= idx {
			if len(ea) != 0 {
				t.Fatalf("%s → %s: slot %d filled before hop %d sealed it", from, dst, j, j)
			}
			continue
		}
		kc, err := src.hopKey(want.Path[j].IA, f.now())
		if err != nil {
			t.Fatal(err)
		}
		sigma, err := kc.sealer.OpenTo(nil, ea, eerAuthAD(nil, want.ID, uint8(j)))
		hf := packet.HopField{In: want.Path[j].In, Eg: want.Path[j].Eg}
		if wantSigma := f.services[want.Path[j].IA].hopAuth(&res, &eer, hf); err != nil || !bytes.Equal(sigma, wantSigma[:]) {
			t.Fatalf("%s → %s: slot %d does not open to σ of %s (%v)", from, dst, j, want.Path[j].IA, err)
		}
	}
}

// TestSoloWireDifferential runs a seeded mix of setups, renewals, refusals
// (over-capacity at the transfer AS, source policy, destination veto, the
// renewal throttle), retried duplicates and downstream transport failures
// through a fabric whose every link is recorded, at one shard and at four.
// Every request on every link must be byte for byte what
// EESetupReq.Marshal gives for the request the source is making, with that
// hop's accumulator; every response must be what EESetupResp.Marshal gives
// for its decoded form, shaped for the hop that receives it, with every
// sealed slot opening to the σ its AS computes.
func TestSoloWireDifferential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rec := &wireRecorder{t: t, lose: map[topology.IA]int{}, down: map[topology.IA]bool{}}
			f := twoISDFabric(t, func(iaKey topology.IA, cfg *Config) {
				highRate(iaKey, cfg)
				cfg.CPlaneShards = shards
				cfg.Transport = NewRetryTransport(recTransport{rec, iaKey, cfg.Transport}, RetryPolicy{MaxAttempts: 2}, nil)
				switch iaKey {
				case ia(1, 11):
					cfg.Policy = &HostCapPolicy{DefaultCapKbps: 1 << 40, PerHost: map[uint32]uint64{666: 10}}
				case ia(2, 11):
					cfg.DstApprove = refuseHost99
				}
			})
			rec.f = f
			// The core SegR is the bottleneck, so over-capacity is refused at the
			// transfer AS, two hops in.
			for _, sr := range []struct {
				at  topology.IA
				seg int
				bw  uint64
			}{{ia(1, 11), 0, 1_000_000}, {ia(1, 1), 1, 200_000}, {ia(2, 1), 2, 1_000_000}} {
				seg := f.reg.UpSegments(ia(1, 11))[0]
				switch sr.seg {
				case 1:
					seg = f.reg.CoreSegments(ia(1, 1), ia(2, 1))[0]
				case 2:
					seg = f.reg.DownSegments(ia(2, 11))[0]
				}
				if _, err := f.services[sr.at].SetupSegment(seg, 0, sr.bw); err != nil {
					t.Fatal(err)
				}
			}
			src := f.services[ia(1, 11)]
			first := requestEERsRecorded(t, rec, src, 1_000)
			chain := EESetupReq{SegIDs: first.SegIDs, Splits: first.Splits, Path: first.PathHops}
			live := []*EERGrant{first}

			rng := rand.New(rand.NewSource(18))
			seen := map[string]int{}
			setup := func(kind string, srcHost, dstHost uint32, bw uint64, wantOK bool) {
				want := chain
				want.BwKbps, want.ExpT, want.Ver = bw, f.now()+reservation.EERLifetimeSeconds, 1
				want.SrcHost, want.DstHost = srcHost, dstHost
				rec.want = &want
				g, err := src.RequestEER(srcHost, dstHost, ia(2, 11), bw)
				if (err == nil) != wantOK || (err != nil && !errors.Is(err, ErrRefused)) {
					t.Fatalf("%s: %v", kind, err)
				}
				if g != nil {
					live = append(live, g)
				}
				seen[kind]++
			}
			for step := 0; step < 300; step++ {
				before := *rec
				switch k := rng.Intn(12); {
				case k < 3:
					setup("setup", uint32(1000+step), uint32(5000+step), uint64(100+rng.Intn(900)), true)
				case k == 3:
					setup("over-capacity", 1, 2, 250_000, false)
					if rec.requests-before.requests != 2 {
						t.Fatalf("over-capacity setup put %d requests on the wire, want 2", rec.requests-before.requests)
					}
				case k == 4:
					setup("policy", 666, 2, 100, false)
					if rec.requests != before.requests {
						t.Fatal("a request refused by the source's policy reached the wire")
					}
				case k == 5:
					setup("veto", 1, 99, 100, false)
					if rec.requests-before.requests != 4 {
						t.Fatalf("vetoed setup put %d requests on the wire, want 4", rec.requests-before.requests)
					}
				default:
					i := rng.Intn(len(live))
					g := live[i]
					kind := "renewal"
					hop := g.PathHops[1+rng.Intn(len(g.PathHops)-1)].IA
					switch k {
					case 6:
						kind = "lost response"
						rec.lose[hop] = 1
					case 7:
						kind = "link down"
						rec.down[hop] = true
					}
					renew := func(kind string, wantOK bool) {
						bw := uint64(100 + rng.Intn(900))
						rec.want = renewalOf(g, g.Res.Ver+1, bw, f.now())
						ng, err := src.RenewEER(g, bw)
						if (err == nil) != wantOK || (err != nil && !errors.Is(err, ErrRefused)) {
							t.Fatalf("%s of %s: %v", kind, g.ID, err)
						}
						if ng != nil {
							checkHopAuths(t, f, ng)
							g, live[i] = ng, ng
						}
						seen[kind]++
					}
					f.clock.Add(1)
					renew(kind, kind != "link down")
					delete(rec.down, hop)
					if k == 8 {
						// The same second again: refused by the source, nothing sent.
						sent := rec.requests
						if renew("throttled", false); rec.requests != sent {
							t.Fatal("a throttled renewal reached the wire")
						}
					}
				}
			}
			var dedups uint64
			for _, s := range f.services {
				dedups += s.Metrics().Snapshot().DedupHits
			}
			for _, kind := range []string{"setup", "over-capacity", "policy", "veto", "renewal", "throttled", "lost response", "link down"} {
				if seen[kind] == 0 {
					t.Errorf("the mix never produced a %s", kind)
				}
			}
			if rec.lost == 0 || dedups == 0 || rec.grants == 0 || rec.refusals == 0 {
				t.Errorf("%d lost responses, %d dedup hits, %d grants and %d refusals on the wire", rec.lost, dedups, rec.grants, rec.refusals)
			}
			t.Logf("%d requests checked: %d grants, %d refusals, %d lost responses, %d dedup hits; %v", rec.requests, rec.grants, rec.refusals, rec.lost, dedups, seen)
		})
	}
}

// requestEERsRecorded makes the first setup of a recorded fabric, whose path
// the recorder cannot know yet: it is checked against its own decoded form.
func requestEERsRecorded(t *testing.T, rec *wireRecorder, src *Service, bw uint64) *EERGrant {
	t.Helper()
	inner := src.transport
	src.transport = captureTransport{inner, func(msg []byte) {
		req, err := UnmarshalEESetupReq(msg)
		if err != nil {
			t.Fatal(err)
		}
		req.Macs = nil
		rec.want = req
	}}
	g := requestEERs(t, src, 1, bw)[0]
	src.transport = inner
	return g
}

// TestSoloConcurrentHandlers runs solo setups and renewals from two initiators
// at once — 1-11, and 1-2, which is also the first transit hop of 1-11's
// requests, so one service's scratch serves its own requests and another's —
// through the three services both paths share. Under -race it finds
// unsynchronized sharing of scratch and key cache; the σ check finds one
// request's scratch, or another request's response buffer, leaking into a grant.
func TestSoloConcurrentHandlers(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	f.setupAllSegRs(t, 1_000_000)
	if _, err := f.services[ia(1, 2)].SetupSegment(f.reg.UpSegments(ia(1, 2))[0], 0, 1_000_000); err != nil {
		t.Fatal(err)
	}
	const workers, per, rounds = 4, 24, 4
	// One renewal per EER per second: whoever finishes a round last moves the
	// clock, the others wait for it.
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	arrived := 0
	barrier := func(round int) {
		mu.Lock()
		defer mu.Unlock()
		if arrived++; arrived == (round+1)*workers {
			f.clock.Add(1)
			cond.Broadcast()
		}
		for arrived < (round+1)*workers {
			cond.Wait()
		}
	}
	grants := make([][]*EERGrant, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := f.services[ia(1, 11)]
			if w%2 == 1 {
				src = f.services[ia(1, 2)]
			}
			mine := make([]*EERGrant, per)
			for r := 0; r <= rounds; r++ {
				for i := range mine {
					var g *EERGrant
					var err error
					if r == 0 {
						g, err = src.RequestEER(uint32(w*1000+i), uint32(i), ia(2, 11), uint64(100+w))
					} else if mine[i] != nil {
						g, err = src.RenewEER(mine[i], uint64(100+w+r))
					}
					if err != nil {
						t.Errorf("worker %d round %d: %v", w, r, err)
						continue
					}
					mine[i] = g
				}
				barrier(r)
			}
			grants[w] = mine
		}(w)
	}
	wg.Wait()
	for w, mine := range grants {
		for _, g := range mine {
			if g == nil || g.Res.Ver != 1+rounds || g.Res.BwKbps != uint32(100+w+rounds) || len(g.PathHops) != 5-w%2 {
				t.Fatalf("worker %d ended with grant %+v", w, g)
			}
			checkHopAuths(t, f, g)
		}
	}
}

// sharesArray reports whether two non-empty slices share their backing array's
// first element.
func sharesArray[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// sharesChain reports, per chain slice, whether g shares it with the layout
// Path, PathHops, Splits, SegIDs.
func sharesChain(g *EERGrant, path []packet.HopField, hops []PathHop, splits []uint8, segIDs []reservation.ID) [4]bool {
	return [4]bool{sharesArray(g.Path, path), sharesArray(g.PathHops, hops),
		sharesArray(g.Splits, splits), sharesArray(g.SegIDs, segIDs)}
}

// TestGrantSharesChain: a grant's chain is never copied. A setup's Path,
// PathHops, Splits and SegIDs are the directory memo's layout of the chain it
// was set up over, a renewal's — solo or in a wave — those of the grant it
// renews. A Register empties the memo: the grants set up before it still renew,
// and the new memo's layout shares nothing with them.
func TestGrantSharesChain(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	all := [4]bool{true, true, true, true}
	memo := func() *dirChain {
		cs, err := src.chainsTo(ia(2, 11))
		if err != nil {
			t.Fatal(err)
		}
		return &cs[0]
	}
	c := memo()
	if len(c.splits) == 0 {
		t.Fatalf("chain %v has no transfer AS: Splits cannot be checked", c.segIDs)
	}
	g, err := src.RequestEER(1, 2, ia(2, 11), 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := sharesChain(g, c.fields, c.hops, c.splits, c.segIDs); got != all {
		t.Fatalf("setup shares %v of Path, PathHops, Splits, SegIDs with the memo's layout", got)
	}
	if !slices.Equal(g.Path, HopFields(g.PathHops)) {
		t.Fatalf("setup's Path %v is not PathHops' hop fields %v", g.Path, g.PathHops)
	}
	f.clock.Add(1)
	r, err := src.RenewEER(g, 200)
	if err != nil {
		t.Fatal(err)
	}
	if got := sharesChain(r, g.Path, g.PathHops, g.Splits, g.SegIDs); got != all {
		t.Fatalf("solo renewal shares %v of Path, PathHops, Splits, SegIDs with its predecessor", got)
	}
	f.clock.Add(1)
	ws, errs := src.RenewEERBatch([]*EERGrant{r}, []uint64{100})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if got := sharesChain(ws[0], r.Path, r.PathHops, r.Splits, r.SegIDs); got != all {
		t.Fatalf("wave renewal shares %v of Path, PathHops, Splits, SegIDs with its predecessor", got)
	}

	offers, err := src.SegRsTo(ia(2, 11))
	if err != nil {
		t.Fatal(err)
	}
	replacement := *offers[0][0]
	f.dir.Register(&replacement)
	f.clock.Add(1)
	if r, err = src.RenewEER(ws[0], 100); err != nil {
		t.Fatalf("renewal of a grant set up before the memo emptied: %v", err)
	}
	checkHopAuths(t, f, r)
	fresh := memo()
	if fresh == c {
		t.Fatal("Register left the memo's answer in place")
	}
	for _, old := range []*EERGrant{g, r} {
		if got := sharesChain(old, fresh.fields, fresh.hops, fresh.splits, fresh.segIDs); got != [4]bool{} {
			t.Fatalf("the memo after Register shares %v of Path, PathHops, Splits, SegIDs with an old grant", got)
		}
	}
	ng, err := src.RequestEER(3, 4, ia(2, 11), 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := sharesChain(ng, fresh.fields, fresh.hops, fresh.splits, fresh.segIDs); got != all {
		t.Fatalf("setup after Register shares %v of Path, PathHops, Splits, SegIDs with the new memo", got)
	}
}

// sealedAt0 runs msg, a tag-4/5/7 request src signed, from hop 0 as src's own
// initiator does — copied into src's scratch, read through its view and
// handled at index 0 — and
// returns the nonce of every σ or blob the hops sealed into the answer, hop
// 0's included (the initiator's own seal never crosses a link).
func sealedAt0(t *testing.T, src *Service, msg []byte) (nonces [][cryptoutil.NonceSize]byte) {
	t.Helper()
	sc := src.getWave()
	defer src.putWave(sc)
	var sealed [][]byte
	sc.fwd = append(sc.fwd[:0], msg...)
	if msg[0] == tagEEBatchRenew {
		if err := sc.wave.load(sc.fwd); err != nil {
			t.Fatal(err)
		}
		resp, err := UnmarshalEEBatchRenewResp(src.processEEBatchRenew(sc, 0))
		if err != nil || resp.Refusal != Granted || liveOf(resp.Status) != len(resp.Status) {
			t.Fatalf("wave of %d: %+v, %v", sc.wave.n, resp, err)
		}
		sealed = resp.Blobs
	} else {
		if err := sc.soloV.load(sc.fwd); err != nil {
			t.Fatal(err)
		}
		resp, err := UnmarshalEESetupResp(src.processEESetup(sc, 0, sc.soloV.bw()))
		if err != nil || resp.Refusal != Granted {
			t.Fatalf("solo request: %+v, %v", resp, err)
		}
		sealed = resp.EncAuths
	}
	for _, b := range sealed {
		nonces = append(nonces, [cryptoutil.NonceSize]byte(b))
	}
	return nonces
}

// TestSealNoncesNeverRepeat collects the nonce of everything every hop seals —
// solo setups, solo renewals, waves, and one wave of more than maxRetainedWave
// items, whose scratch every hop discards, so that the next request at each
// hop draws a fresh nonce base — and requires that none repeats, under any key
// (each hop seals for the one source, 1-11, under K_{hop→1-11}).
func TestSealNoncesNeverRepeat(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	c, err := src.chainsTo(ia(2, 11))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[cryptoutil.NonceSize]byte]string)
	count := func(what string, msg []byte) {
		t.Helper()
		for h, n := range sealedAt0(t, src, msg) {
			if prev, dup := seen[n]; dup {
				t.Fatalf("%s: hop %d sealed under nonce %x, already used by %s", what, h, n, prev)
			}
			seen[n] = fmt.Sprintf("%s hop %d", what, h)
		}
	}
	hops := len(c[0].hops)
	const eers, rounds = 8, 6
	reqs := make([]*EESetupReq, eers)
	for i := range reqs {
		reqs[i] = &EESetupReq{ID: src.nextID(), SegIDs: c[0].segIDs, Splits: c[0].splits, Path: c[0].hops,
			BwKbps: 100, ExpT: f.now() + reservation.EERLifetimeSeconds, Ver: 1,
			SrcHost: uint32(i), DstHost: 9, AccumKbps: 100}
		count(fmt.Sprintf("setup %d", i), signSolo(t, src, reqs[i]))
	}
	renewAll := func(round int) {
		f.clock.Add(1)
		for i, r := range reqs {
			r.Ver, r.ExpT, r.Renewal = r.Ver+1, f.now()+reservation.EERLifetimeSeconds, true
			if i%2 == 0 {
				count(fmt.Sprintf("round %d solo renewal %d", round, i), signSolo(t, src, r))
				continue
			}
			count(fmt.Sprintf("round %d wave of %d", round, i), signWave(t, src, waveOf(r)))
		}
	}
	for round := range rounds {
		renewAll(round)
	}
	// One EER named more than maxRetainedWave times: every item after the
	// first is a retry of the version the first committed.
	f.clock.Add(1)
	big := waveOf(&EESetupReq{ID: reqs[0].ID, SegIDs: reqs[0].SegIDs, Splits: reqs[0].Splits, Path: reqs[0].Path,
		BwKbps: 100, ExpT: f.now() + reservation.EERLifetimeSeconds, Ver: reqs[0].Ver + 1,
		SrcHost: reqs[0].SrcHost, DstHost: reqs[0].DstHost, AccumKbps: 100})
	reqs[0].Ver, reqs[0].ExpT = big.Items[0].Ver, big.Items[0].ExpT
	for len(big.Items) <= maxRetainedWave {
		big.Items = append(big.Items, big.Items[0])
		big.Accums = append(big.Accums, big.Accums[0])
		big.Status = append(big.Status, Granted)
	}
	count("the oversized wave", signWave(t, src, big))
	for _, ph := range c[0].hops {
		s := f.services[ph.IA]
		s.waveMu.Lock()
		kept := len(s.waveFree)
		s.waveMu.Unlock()
		if s.idle.Load() != nil {
			kept++
		}
		if kept != 0 {
			t.Fatalf("%s kept %d scratch after the oversized wave, want every one discarded", ph.IA, kept)
		}
	}
	for round := rounds; round < 2*rounds; round++ {
		renewAll(round)
	}
	if want := hops * (eers + 1 + 2*rounds*eers); len(seen) != want {
		t.Fatalf("%d distinct nonces, want %d", len(seen), want)
	}
}
