// wave_test.go — what a tag-7 renewal wave must keep true while it pays its
// per-wave costs once: the codec bounds its counts before it allocates, the
// fused forward pass decides exactly what the per-item sequence decides,
// nonces never repeat, grants own their bytes, allocations per item stay
// pinned, and the per-service key cache and scratch survive concurrent
// handlers.
package cserv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// The 9-byte pre-auth crashers: an empty chain and an item count of 2²⁴ (the
// parent sized three slices by it before reading a single item: 768 MiB).
var (
	reqCountCrasher  = []byte{tagEEBatchRenew, 0, 0, 0, 0, 0x01, 0, 0, 0}
	respCountCrasher = []byte{1, 0, 0, 0, 0x01, 0, 0, 0, 0}
)

// allocatedBy returns the bytes fn allocates (single goroutine).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEEBatchCodecCountBound is the regression test of the pre-auth memory
// DoS: a count the message cannot back with bytes is ErrTruncated, and what a
// decoder allocates is bounded by the message's own length.
func TestEEBatchCodecCountBound(t *testing.T) {
	huge := func(msg []byte, at int, n uint32) []byte {
		m := append([]byte(nil), msg...)
		binary.BigEndian.PutUint32(m[at:], n)
		return m
	}
	// A response whose first count is honest and whose EncAuths count is not.
	respAuths := binary.BigEndian.AppendUint32([]byte{1, 0, 0, 0, 0, 0, 0, 0}, 1<<24)
	for name, tc := range map[string]struct {
		msg    []byte
		decode func([]byte) error
	}{
		"req n=2^24":        {reqCountCrasher, func(b []byte) error { _, err := UnmarshalEEBatchRenewReq(b); return err }},
		"req n=2^32-1":      {huge(reqCountCrasher, 5, 1<<32-1), func(b []byte) error { _, err := UnmarshalEEBatchRenewReq(b); return err }},
		"resp n=2^24":       {respCountCrasher, func(b []byte) error { _, err := UnmarshalEEBatchRenewResp(b); return err }},
		"resp n=2^32-1":     {huge(respCountCrasher, 4, 1<<32-1), func(b []byte) error { _, err := UnmarshalEEBatchRenewResp(b); return err }},
		"resp auths=2^24":   {respAuths, func(b []byte) error { _, err := UnmarshalEEBatchRenewResp(b); return err }},
		"resp auths=2^32-1": {huge(respAuths, 8, 1<<32-1), func(b []byte) error { _, err := UnmarshalEEBatchRenewResp(b); return err }},
	} {
		var err error
		got := allocatedBy(func() { err = tc.decode(tc.msg) })
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", name, err)
		}
		if got > 4096 {
			t.Errorf("%s: a %d-byte message made the decoder allocate %d bytes", name, len(tc.msg), got)
		}
	}
	// An honest large wave decodes in memory proportional to its size.
	req := &EEBatchRenewReq{Path: make([]PathHop, 5), Macs: make([][16]byte, 5)}
	for i := 0; i < 4096; i++ {
		req.Items = append(req.Items, EEBatchItem{ID: reservation.ID{SrcAS: ia(1, 11), Num: uint32(i)}})
		req.Accums = append(req.Accums, 1)
		req.Status = append(req.Status, EEItemOK)
	}
	msg := req.Marshal()
	if got := allocatedBy(func() { _, _ = UnmarshalEEBatchRenewReq(msg) }); got > 4*uint64(len(msg)) {
		t.Errorf("a %d-byte wave made the decoder allocate %d bytes", len(msg), got)
	}
}

// signedWave builds the renewal wave of prevs as the source would send it.
func signedWave(t testing.TB, src *Service, prevs []*EERGrant) *EEBatchRenewReq {
	t.Helper()
	req := &EEBatchRenewReq{SegIDs: prevs[0].SegIDs, Splits: prevs[0].Splits, Path: prevs[0].PathHops}
	for _, p := range prevs {
		req.Items = append(req.Items, EEBatchItem{
			ID: p.ID, Ver: p.Res.Ver + 1, BwKbps: uint64(p.Res.BwKbps),
			ExpT: src.clock() + reservation.EERLifetimeSeconds, SrcHost: p.EER.SrcHost, DstHost: p.EER.DstHost,
		})
		req.Accums = append(req.Accums, uint64(p.Res.BwKbps))
		req.Status = append(req.Status, EEItemOK)
	}
	signWave(t, src, req)
	return req
}

// requestEERs sets up n EERs 1-11 → 2-11 of bwKbps each.
func requestEERs(t testing.TB, src *Service, n int, bwKbps uint64) []*EERGrant {
	t.Helper()
	gs := make([]*EERGrant, n)
	for i := range gs {
		g, err := src.RequestEER(uint32(1000+i), uint32(5000+i), ia(2, 11), bwKbps)
		if err != nil {
			t.Fatalf("setup %d: %v", i, err)
		}
		gs[i] = g
	}
	return gs
}

func highRate(_ topology.IA, cfg *Config) { cfg.RateLimit = 1 << 20 }

// FuzzEEBatchRenewCodec fuzzes the tag-7 codec (ROADMAP adversarial item (a)):
// no input panics or allocates beyond its size class; what decodes re-encodes
// to the bytes it was decoded from and to a fixed point; an encoding owns its
// bytes (the decoded form aliases the input, by contract); and flipping any
// MAC-covered byte of a signed wave makes it undecodable or unauthentic.
func FuzzEEBatchRenewCodec(f *testing.F) {
	fab := cpFabric(f, 4, nil)
	fab.setupAllSegRs(f, 100_000)
	src := fab.services[ia(1, 11)]
	grants := requestEERs(f, src, 3, 1_000)
	wave := signedWave(f, src, grants)
	signed := wave.Marshal()
	bodyLen := len(wave.Body())
	hop1 := fab.services[wave.Path[1].IA]
	resp := &EEBatchRenewResp{OK: true, Granted: []uint64{7, 0}, Status: []uint8{EEItemOK, EEItemStale},
		EncAuths: [][]byte{{1, 2, 3}, nil, nil, {4}}}

	f.Add(reqCountCrasher, uint16(0))
	f.Add(respCountCrasher, uint16(0))
	f.Add(signed, uint16(77))
	f.Add(resp.Marshal(), uint16(3))
	// A wave that authenticates and names another source's EER (TestWaveItemsMustShareSource).
	f.Add(signWave(f, fab.services[ia(2, 1)], forgedWave(grants[0], []EEBatchItem{
		{ID: reservation.ID{SrcAS: ia(2, 1), Num: 1}, Ver: 1, BwKbps: 1, ExpT: t0 + 2}, wave.Items[0]})), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, flip uint16) {
		buf := append([]byte(nil), data...)
		if req, err := UnmarshalEEBatchRenewReq(buf); err == nil {
			enc := req.Marshal()
			if !bytes.HasPrefix(data, enc) {
				t.Fatalf("request re-encodes to other bytes:\n%x\n%x", data, enc)
			}
			if !bytes.Equal(req.wire, data[:len(req.wire)]) || !bytes.Equal(req.Body(), req.wire[:req.bodyLen]) {
				t.Fatal("the retained wire prefix is not the body ‖ MACs encoding")
			}
		}
		if r1, err := UnmarshalEEBatchRenewResp(buf); err == nil {
			enc := r1.Marshal()
			r2, err := UnmarshalEEBatchRenewResp(enc)
			if err != nil {
				t.Fatalf("own encoding does not decode: %v", err)
			}
			if enc2 := r2.Marshal(); !bytes.Equal(enc, enc2) {
				t.Fatalf("response encoding is not a fixed point:\n%x\n%x", enc, enc2)
			}
			// The decoded response aliases buf; its encoding must not.
			keep := append([]byte(nil), enc...)
			for i := range buf {
				buf[i] ^= 0xff
			}
			if !bytes.Equal(enc, keep) {
				t.Fatal("a marshaled response changed when the buffer it was decoded from did")
			}
		}
		// One flipped bit in the MAC-covered part of a signed wave.
		m := append([]byte(nil), signed...)
		m[int(flip>>3)%bodyLen] ^= 1 << (flip & 7)
		var req EEBatchRenewReq
		if req.unmarshal(m) == nil && hop1.verifySourceMac(src.ia, req.wire[:req.bodyLen], req.Macs, 1) == nil {
			t.Fatalf("bit %d of body byte %d flipped and the wave still authenticates", flip&7, int(flip>>3)%bodyLen)
		}
	})
}

// tapTransport keeps the last tag-7 response the wrapped service received.
type tapTransport struct {
	inner Transport
	mu    sync.Mutex
	last  []byte
}

func (tt *tapTransport) Call(dst topology.IA, msg []byte) ([]byte, error) {
	resp, err := tt.inner.Call(dst, msg)
	if err == nil && len(msg) > 0 && msg[0] == tagEEBatchRenew {
		tt.mu.Lock()
		tt.last = resp
		tt.mu.Unlock()
	}
	return resp, err
}

func checkHopAuths(t *testing.T, f *fabric, g *EERGrant) {
	t.Helper()
	for h, ph := range g.PathHops {
		want := f.services[ph.IA].hopAuth(&g.Res, &g.EER, packet.HopField{In: ph.In, Eg: ph.Eg})
		if g.HopAuths[h] != want {
			t.Fatalf("EER %s hop %d (%s): σ mismatch", g.ID, h, ph.IA)
		}
	}
}

// TestWaveNoncesAndOwnership renews one 4096-item wave and checks, on the
// response the source received, that no two sealed authenticators share a
// nonce — every item draws its own, though the wave reads them at once — and
// that the grants own their bytes: scribbling over the response buffer and
// running the next wave through the same scratch leaves them intact.
func TestWaveNoncesAndOwnership(t *testing.T) {
	tap := &tapTransport{}
	f := cpFabric(t, 4, func(iaKey topology.IA, cfg *Config) {
		highRate(iaKey, cfg)
		if iaKey == ia(1, 11) {
			tap.inner = cfg.Transport
			cfg.Transport = tap
		}
	})
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	const n = 4096
	prevs := requestEERs(t, src, n, 100)
	bws := make([]uint64, n)
	for i := range bws {
		bws[i] = 100
	}
	f.clock.Store(t0 + 1)
	grants, errs := src.RenewEERBatch(prevs, bws)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	resp, err := UnmarshalEEBatchRenewResp(tap.last)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[12]byte]bool)
	for _, ea := range resp.EncAuths {
		if len(ea) == 0 {
			continue // the source's own slot: sealed after this response
		}
		if len(ea) != sealedAuthLen {
			t.Fatalf("sealed authenticator of %d bytes", len(ea))
		}
		if nonce := [12]byte(ea[:12]); seen[nonce] {
			t.Fatalf("nonce %x sealed two authenticators of one wave", nonce)
		} else {
			seen[nonce] = true
		}
	}
	if len(seen) != n*4 {
		t.Fatalf("%d distinct nonces, want %d (4 downstream hops × %d items)", len(seen), n*4, n)
	}
	for i := range tap.last {
		tap.last[i] = 0xff
	}
	f.clock.Store(t0 + 2)
	if _, errs = src.RenewEERBatch(grants[:64], bws[:64]); errs[0] != nil {
		t.Fatal(errs[0])
	}
	for _, g := range grants {
		checkHopAuths(t, f, g)
	}
}

// TestWaveAllocBudget pins the allocations of a 5-hop, 1024-item wave driven
// by KeeperFleet.Tick, per item, so the gain cannot silently rot: what is left
// is each item's grant and its hop authenticators (2) plus the per-wave
// messages. The parent paid about 62 per item.
func TestWaveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := cpFabric(t, 8, highRate)
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	const n = 1024
	fleet := NewKeeperFleet(src)
	fleet.BatchSize = n
	gw := &fakeInstaller{}
	for _, g := range requestEERs(t, src, n, 100) {
		fleet.Add(NewEERKeeper(src, gw, g, 4))
	}
	tick := func() {
		f.clock.Add(13)
		if failed := fleet.Tick(); failed != 0 {
			t.Fatalf("%d renewals failed", failed)
		}
	}
	tick() // size the scratch
	perItem := testing.AllocsPerRun(5, tick) / n
	if gw.installs != 7*n {
		t.Fatalf("installs = %d, want %d", gw.installs, 7*n)
	}
	t.Logf("%.3f allocations per item", perItem)
	if perItem > 2.25 {
		t.Errorf("a wave allocates %.2f times per item, budget 2.25", perItem)
	}
}

// echoBatch answers a forwarded wave the way a chain of granting downstream
// hops would: every live item granted what it carried.
type echoBatch struct{ inner Transport }

func (e echoBatch) Call(dst topology.IA, msg []byte) ([]byte, error) {
	if msg[0] != tagEEBatchRenew {
		return e.inner.Call(dst, msg)
	}
	req, err := UnmarshalEEBatchRenewReq(msg)
	if err != nil {
		return nil, err
	}
	return (&EEBatchRenewResp{OK: true, Granted: req.Accums, Status: req.Status,
		EncAuths: make([][]byte, len(req.Items)*len(req.Path))}).Marshal(), nil
}

// hopSegs resolves the covering SegRs of hop idx as the handlers do.
func hopSegs(t testing.TB, s *Service, req *EEBatchRenewReq, idx int) (ids []reservation.ID, segRs []*reservation.SegR) {
	t.Helper()
	c, err := s.hopCover(req.SegIDs, req.Splits, len(req.Path), idx)
	if err != nil {
		t.Fatal(err)
	}
	return c.segs(), c.segRs[:c.n]
}

// refAllowRenew is the model of the per-EER renewal throttle (§4.2, one a
// second): a renewal is judged by the mark in its record and leaves its own
// there. The mark goes where the record goes: a re-admission finds neither, and
// the record it creates is born marked.
func refAllowRenew(s *Service, id reservation.ID, segs []reservation.ID, now uint32) (ok bool) {
	s.cp.withPath(segs, func(p eerPath) {
		e, _ := p.lookup(id)
		if ok = e.lastRenew != now; ok {
			e.lastRenew = now
			p.keep(id, e)
		}
	})
	return ok
}

// refBatchHop is the reference the fused forward pass is held to: the
// parent's per-item sequence at one hop, every step its own locked CPlane
// call — LookupEER, dedup, the throttle (refAllowRenew), the transfer split over
// SegAvail, RenewEERPath or SetupEERPath, settle — item after item in wave
// order, with the downstream answer of echoBatch (final grant = hop grant).
func refBatchHop(t testing.TB, s *Service, req *EEBatchRenewReq, idx int) (status []uint8, granted []uint64) {
	now := s.clock()
	segIDs, segRs := hopSegs(t, s, req, idx)
	transfer := len(segRs) == 2 && segRs[0].SegType == segment.Up && segRs[1].SegType == segment.Core
	status, granted = make([]uint8, len(req.Items)), make([]uint64, len(req.Items))
	for i := range req.Items {
		it := &req.Items[i]
		if status[i] = req.Status[i]; status[i] != EEItemOK {
			continue
		}
		asked := min(req.Accums[i], it.BwKbps)
		prevBw, prevVer, prevExpT, had := s.cp.LookupEER(it.ID, segIDs[0])
		if had && prevVer == it.Ver && prevExpT == it.ExpT {
			granted[i] = prevBw
			continue
		}
		if had && !refAllowRenew(s, it.ID, segIDs, now) {
			status[i] = EEItemThrottled
			continue
		}
		grant := asked
		var capped, tGrant uint64
		if transfer {
			up, core := segRs[0], segRs[1]
			upAvail, coreAvail := s.cp.SegAvail(up.ID, now, it.ExpT), s.cp.SegAvail(core.ID, now, it.ExpT)
			if had && prevExpT > now {
				upAvail, coreAvail = upAvail+prevBw, coreAvail+prevBw
			}
			grant = s.transfer.Admit(core.ID, up.ID, asked, up.Active.BwKbps, core.Active.BwKbps, upAvail, coreAvail)
			capped, tGrant = min(asked, up.Active.BwKbps), grant
			if grant == 0 {
				s.transfer.Release(core.ID, up.ID, capped, 0)
				status[i] = EEItemRefused
				continue
			}
		}
		var err error
		failed := EEItemRefused
		if had {
			grant, err = s.cp.RenewEERPath(it.ID, segIDs, grant, it.ExpT, it.Ver)
		} else {
			if err, failed = s.cp.SetupEERPath(it.ID, segIDs, grant, it.ExpT, it.Ver), EEItemStale; err == nil {
				refAllowRenew(s, it.ID, segIDs, now) // a re-admitted record is born marked
			}
		}
		if err != nil {
			if transfer {
				s.transfer.Release(segIDs[1], segIDs[0], capped, tGrant)
			}
			status[i] = failed
			continue
		}
		granted[i] = grant
		if transfer {
			// Over-ask, the replaced version's charge, the clamp to the final grant.
			s.transfer.Release(segIDs[1], segIDs[0], capped-tGrant, 0)
			if had && prevExpT > now {
				s.transfer.Release(segIDs[1], segIDs[0], prevBw, prevBw)
			}
			s.transfer.Release(segIDs[1], segIDs[0], tGrant-grant, tGrant-grant)
		}
	}
	return status, granted
}

// TestFusedSweepDifferential drives random waves — fresh renewals that grow,
// shrink and oversubscribe, stragglers retrying a committed version,
// same-second renewals, records the hop lost, items an upstream hop already
// killed — at each kind of hop (single-segment transit, up→core transfer,
// core→down pair, last hop) through the handler on one fabric and through
// refBatchHop on its twin, and demands the same per-item status and grant,
// the same engine counters and the same peak demand on every covering SegR
// after every wave.
func TestFusedSweepDifferential(t *testing.T) {
	const nEER, waves = 40, 12
	for idx := 1; idx <= 4; idx++ {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("hop%d/seed%d", idx, seed), func(t *testing.T) {
				var hopIA topology.IA
				build := func() (*fabric, []*EERGrant) {
					f := cpFabric(t, 4, func(iaKey topology.IA, cfg *Config) {
						highRate(iaKey, cfg)
						cfg.Transport = echoBatch{cfg.Transport}
					})
					f.setupAllSegRs(t, 50_000)
					return f, requestEERs(t, f.services[ia(1, 11)], nEER, 1_000)
				}
				fa, ga := build() // handler
				fb, gb := build() // reference
				hopIA = ga[0].PathHops[idx].IA
				sa, sb := fa.services[hopIA], fb.services[hopIA]

				rng := rand.New(rand.NewSource(seed))
				type sent struct {
					item EEBatchItem
					ok   bool
				}
				last := make([]sent, nEER) // per EER: the newest item sent and whether it was granted
				ver := make([]uint16, nEER)
				index := make(map[reservation.ID]int, nEER)
				for i := range ver {
					ver[i] = 1
					index[ga[i].ID] = i
				}
				seen := map[uint8]int{}
				dups := 0
				for w := 0; w < waves; w++ {
					if rng.Intn(3) > 0 { // else: the same second again, so fresh versions throttle
						fa.clock.Add(uint32(1 + rng.Intn(3)))
						fb.clock.Store(fa.clock.Load())
					}
					now := fa.clock.Load()
					reqA := signedWave(t, fa.services[ia(1, 11)], ga)
					reqB := signedWave(t, fb.services[ia(1, 11)], gb)
					segIDs, _ := hopSegs(t, sa, reqA, idx)
					reqA.Items, reqA.Accums, reqA.Status = nil, nil, nil
					for _, e := range rng.Perm(nEER)[:10+rng.Intn(nEER-9)] {
						id := ga[e].ID
						var it EEBatchItem
						switch k := rng.Intn(10); {
						case k == 0 && last[e].ok: // straggler: retry of the committed version
							it = last[e].item
							dups++
						default:
							if k == 1 { // the hop lost the record
								sa.cp.TeardownEERPath(id, segIDs)
								sb.cp.TeardownEERPath(id, segIDs)
							}
							ver[e]++
							it = EEBatchItem{ID: id, Ver: ver[e], BwKbps: uint64(200 + rng.Intn(4_000)),
								ExpT: now + reservation.EERLifetimeSeconds, SrcHost: ga[e].EER.SrcHost, DstHost: ga[e].EER.DstHost}
							if rng.Intn(8) == 0 {
								it.BwKbps = 60_000 // more than the SegR has
							}
						}
						accum, status := it.BwKbps, EEItemOK
						if rng.Intn(4) == 0 {
							accum = it.BwKbps / 2 // an upstream hop granted less
						}
						if rng.Intn(12) == 0 {
							status = EEItemRefused // an upstream hop killed it
						}
						reqA.Items = append(reqA.Items, it)
						reqA.Accums = append(reqA.Accums, accum)
						reqA.Status = append(reqA.Status, status)
						last[e].item = it
					}
					reqB.Items, reqB.Accums, reqB.Status = reqA.Items, reqA.Accums, reqA.Status
					var err error
					if reqA.Macs, err = fa.services[ia(1, 11)].computeMacs(reqA.Path, reqA.Body()); err != nil {
						t.Fatal(err)
					}

					out, err := sa.HandleMsg(reqA.Marshal())
					if err != nil {
						t.Fatal(err)
					}
					resp, err := UnmarshalEEBatchRenewResp(out)
					if err != nil || !resp.OK {
						t.Fatalf("wave %d: %v %+v", w, err, resp)
					}
					refStatus, refGranted := refBatchHop(t, sb, reqB, idx)
					for i := range reqA.Items {
						if resp.Status[i] != refStatus[i] || resp.Granted[i] != refGranted[i] {
							t.Fatalf("wave %d item %d (%+v): handler status %d grant %d, per-item sequence status %d grant %d",
								w, i, reqA.Items[i], resp.Status[i], resp.Granted[i], refStatus[i], refGranted[i])
						}
						seen[resp.Status[i]]++
						e := index[reqA.Items[i].ID]
						last[e].ok = resp.Status[i] == EEItemOK && resp.Granted[i] > 0
					}
					if ca, cb := sa.cp.Counts(), sb.cp.Counts(); ca != cb {
						t.Fatalf("wave %d: engine counters diverge:\nhandler  %+v\nsequence %+v", w, ca, cb)
					}
					for _, seg := range segIDs {
						da, _ := sa.cp.SegDemandMax(seg)
						db, _ := sb.cp.SegDemandMax(seg)
						if da != db || da > 50_000 {
							t.Fatalf("wave %d: SegR %s peak demand %d (handler) vs %d (sequence), grant 50000", w, seg, da, db)
						}
					}
				}
				if seen[EEItemOK] == 0 || seen[EEItemThrottled] == 0 || seen[EEItemStale]+seen[EEItemRefused] == 0 || dups == 0 {
					t.Errorf("waves too tame: statuses %v, %d retries", seen, dups)
				}
				if m := sa.Metrics().Snapshot(); m.DedupHits == 0 || m.RenewThrottle != uint64(seen[EEItemThrottled]) {
					t.Errorf("handler counted %d dedup hits and %d throttled, statuses %v", m.DedupHits, m.RenewThrottle, seen)
				}
			})
		}
	}
}

// TestWaveConcurrentHandlers runs batched waves and solo renewals of disjoint
// EER sets through one source — and therefore through every transit service's
// key cache and wave scratch — from several goroutines at once; under -race
// it finds unsynchronized sharing, and the σ check finds one wave's scratch
// leaking into another's response.
func TestWaveConcurrentHandlers(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	const workers, per, rounds = 4, 48, 3
	all := requestEERs(t, src, workers*per, 100)
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
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(mine []*EERGrant, solo bool) {
			defer wg.Done()
			bws := make([]uint64, len(mine))
			for i := range bws {
				bws[i] = 100
			}
			for r := 0; r < rounds; r++ {
				if solo {
					for i, g := range mine {
						ng, err := src.RenewEER(g, 100)
						if err != nil {
							t.Errorf("solo renewal: %v", err)
							return
						}
						mine[i] = ng
					}
				} else {
					grants, errs := src.RenewEERBatch(mine, bws)
					if err := errors.Join(errs...); err != nil {
						t.Errorf("wave: %v", err)
						return
					}
					copy(mine, grants)
				}
				barrier(r)
			}
		}(all[w*per:(w+1)*per], w == 0)
	}
	wg.Wait()
	for _, g := range all {
		if g.Res.Ver != 1+rounds {
			t.Fatalf("EER %s at version %d, want %d", g.ID, g.Res.Ver, 1+rounds)
		}
		checkHopAuths(t, f, g)
	}
}

// TestRenewThrottleLivesInTheRecord: the per-EER throttle's mark is a field of
// the EER record and nothing else. A record lost in the very second it was
// renewed takes its mark with it, so the re-admission that follows in that second
// passes this hop — pinned at the source, where the next hop's intact record then
// stops it — and a re-admission that goes through creates its record marked.
func TestRenewThrottleLivesInTheRecord(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	gs := requestEERs(t, src, 8, 1_000)
	bws := make([]uint64, len(gs))
	for i := range bws {
		bws[i] = 1_000
	}
	for round := 0; round < 3; round++ {
		f.clock.Add(1)
		var errs []error
		if gs, errs = src.RenewEERBatch(gs, bws); errors.Join(errs...) != nil {
			t.Fatalf("wave %d: %v", round, errors.Join(errs...))
		}
	}
	f.clock.Add(1)
	g, err := src.RenewEER(gs[0], 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.RenewEER(g, 1_000); err == nil || !strings.Contains(err.Error(), "hop 0: renewal rate limit") {
		t.Fatalf("second renewal in one second: err = %v, want the source's throttle", err)
	}
	// The source loses the record it renewed this second. Each re-admission is
	// rolled back when hop 1 refuses, so the source keeps nothing to mark.
	src.cp.TeardownEERPath(g.ID, g.SegIDs[:1])
	for try := 0; try < 2; try++ {
		if _, err := src.RenewEER(g, 1_000); err == nil || !strings.Contains(err.Error(), "hop 1: renewal rate limit") {
			t.Fatalf("re-admission %d in the second of the lost renewal: err = %v, want it past the source and throttled at hop 1", try, err)
		}
	}
	// A second later the re-admission goes through, and its record is born marked.
	f.clock.Add(1)
	if g, err = src.RenewEER(g, 1_000); err != nil {
		t.Fatalf("re-admission: %v", err)
	}
	if _, err := src.RenewEER(g, 1_000); err == nil || !strings.Contains(err.Error(), "hop 0: renewal rate limit") {
		t.Fatalf("renewal in the second of the re-admission: err = %v, want the source's throttle", err)
	}
}
