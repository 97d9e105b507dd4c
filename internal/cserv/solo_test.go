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
	"strings"
	"sync"
	"testing"

	"colibri/internal/packet"
	"colibri/internal/reservation"
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

// signSolo signs req as its source would and returns the message.
func signSolo(t testing.TB, src *Service, req *EESetupReq) []byte {
	t.Helper()
	macs, err := src.computeMacs(req.Path, req.Body())
	if err != nil {
		t.Fatal(err)
	}
	req.Macs = macs
	return req.Marshal()
}

// TestSoloAllocBudget pins the allocations of a 5-hop setup and renewal
// through the CPlane fabric, and of a transit hop's HandleMsg with the rest of
// the path behind it, so the gain cannot silently rot. What is left of a
// renewal is the grant with its five slices and the one response buffer (the
// only allocation a handler makes); a setup adds the directory's chain
// enumeration and segment.Join. The parent paid 234 and 209.
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
		if err != nil || resp[0] != 1 {
			t.Fatalf("transit renewal %d: %v %x", next, err, resp)
		}
		next++
	})
	t.Logf("allocations: setup %.1f, renewal %.1f, transit HandleMsg %.1f", setup, renew, transit)
	if setup > 36 {
		t.Errorf("a 5-hop setup allocates %.1f times, budget 36", setup)
	}
	if renew > 12 {
		t.Errorf("a 5-hop renewal allocates %.1f times, budget 12", renew)
	}
	if transit > 1 {
		t.Errorf("a transit HandleMsg allocates %.1f times, budget 1 (the last hop's response)", transit)
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
	resp := (&EESetupResp{OK: true, FinalKbps: 1, EncAuths: [][]byte{nil, {1, 2}}}).Marshal()
	if _, err := UnmarshalEESetupResp(resp); err != nil {
		t.Fatal(err)
	}
	for name, msg := range map[string][]byte{
		"OK byte 2":     append([]byte{2}, resp[1:]...),
		"trailing byte": append(append([]byte(nil), resp...), 0),
	} {
		if _, err := UnmarshalEESetupResp(msg); !errors.Is(err, ErrNotCanonical) {
			t.Errorf("response with %s: err = %v, want ErrNotCanonical", name, err)
		}
	}
	// Counts no path can have are refused before anything is sized by them.
	many := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}
	var err error
	if got := allocatedBy(func() { _, err = UnmarshalEESetupResp(many) }); err == nil || got > 1024 {
		t.Errorf("response claiming 65535 authenticators: err = %v after allocating %d bytes", err, got)
	}
	segResp := append((&SegSetupResp{OK: true}).Marshal()[:12], 0xff, 0xff)
	if got := allocatedBy(func() { _, err = UnmarshalSegSetupResp(segResp) }); err == nil || got > 1024 {
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
	if resp, err := UnmarshalEESetupResp(out); err != nil || resp.OK || !strings.Contains(resp.Reason, "covered by 3") {
		t.Fatalf("response %+v, %v; want a refusal naming the three covering reservations", resp, err)
	}
	// The same chain in a renewal wave: one resolution of the covering SegRs
	// serves both handlers.
	if out, err = f.services[g.PathHops[1].IA].HandleMsg(signWave(t, src, waveOf(req))); err != nil {
		t.Fatal(err)
	}
	if resp, err := UnmarshalEEBatchRenewResp(out); err != nil || resp.OK || !strings.Contains(resp.Reason, "covered by 3") {
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
	f.Add((&EESetupResp{OK: true, FinalKbps: 1}).Marshal(), uint16(0), uint64(0)) // the short-response crasher
	f.Add((&EESetupResp{FailedAt: 2, Reason: "admission: no"}).Marshal(), uint16(1), uint64(1))
	mismatch := bytes.Clone(captured[0])
	mismatch[0] = tagEERenew
	f.Add(mismatch, uint16(2), uint64(2))
	f.Add(append(bytes.Clone(captured[1]), 0), uint16(3), uint64(1<<63))

	var scratch EESetupReq
	var scratchResp EESetupResp
	f.Fuzz(func(t *testing.T, data []byte, flip uint16, accum uint64) {
		var req *EESetupReq
		var resp *EESetupResp
		var reqErr, respErr error
		got := allocatedBy(func() {
			req, reqErr = UnmarshalEESetupReq(data)
			resp, respErr = UnmarshalEESetupResp(data)
		})
		if got > 16<<10+4*uint64(len(data)) {
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
				if flipErr == nil && hop.verifySourceMac(src.ia, flipped.wire[:flipped.bodyLen], flipped.Macs, idx) == nil {
					t.Fatalf("bit %d of body byte %d flipped and hop %d still authenticates the request", flip&7, int(flip>>3)%sg.body, idx)
				}
				if err := hop.verifySourceMac(src.ia, retailed.wire[:retailed.bodyLen], retailed.Macs, idx); err != nil {
					t.Fatalf("hop %d refuses the request with a new accumulator: %v", idx, err)
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
	if !r.OK {
		rec.refusals++
		if len(r.EncAuths) != 0 || r.FinalKbps != 0 || int(r.FailedAt) <= idx || r.Reason == "" {
			t.Fatalf("%s → %s: refusal %+v", from, dst, r)
		}
		return
	}
	rec.grants++
	if r.FailedAt != 0 || r.Reason != "" || r.FinalKbps > got.AccumKbps || len(r.EncAuths) != n ||
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
		key, err := src.hopKey(want.Path[j].IA, f.now())
		if err != nil {
			t.Fatal(err)
		}
		sigma, err := src.cryptoFor(key).sealer.OpenTo(nil, ea, eerAuthAD(nil, want.ID, uint8(j)))
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
					cfg.DstApprove = func(req *EESetupReq) bool { return req.DstHost != 99 }
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
