// hopleg_test.go — what the shared hop leg (hopleg.go) must keep true: a solo
// renewal and a wave of one are the same decision, a wave cannot reach another
// source's EERs, and the activation guard reads the ledger the leg charges.
package cserv

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// hopBooks is everything admission keeps at one service.
type hopBooks struct {
	records map[reservation.ID]cpEER
	held    map[reservation.ID]heldPiece
	counts  CPlaneCounts
	audit   []SegRAudit
	// The transfer split's books for the chain's up→core pair, and the core's
	// total.
	demand, grants, total uint64
}

// splitOf reads the transfer split's books of the pair (up, core) in cp — zero
// while the pair has none — and the core-SegR's total.
func splitOf(cp *CPlane, up, core reservation.ID) (demand, grants, total uint64) {
	cp.withPath([]reservation.ID{up, core}, func(p eerPath) {
		if p.rec[1] != nil {
			total = p.rec[1].splitTotal
		}
		if p.cover&pairBit != 0 && p.cover != unknownSegR {
			b := p.prim.pairs[p.cover&^pairBit]
			demand, grants = b.demand, b.granted
		}
	})
	return demand, grants, total
}

func booksOf(s *Service, up, core reservation.ID) hopBooks {
	b := hopBooks{records: make(map[reservation.ID]cpEER), held: make(map[reservation.ID]heldPiece), counts: s.cp.Counts()}
	for _, sh := range s.cp.shards {
		sh.mu.Lock()
		for i := range sh.eers.Len() {
			id, e := sh.eers.At(i)
			b.records[id] = *e
		}
		for i := range sh.held.Len() {
			id, h := sh.held.At(i)
			b.held[id] = *h
		}
		sh.mu.Unlock()
	}
	now := s.clock()
	b.audit = s.cp.AuditLedgers(now, now+4*reservation.EERLifetimeSeconds)
	b.demand, b.grants, b.total = splitOf(s.cp, up, core)
	return b
}

func (b hopBooks) diff(o hopBooks) string {
	switch {
	case b.counts != o.counts:
		return fmt.Sprintf("counts %+v vs %+v", b.counts, o.counts)
	case !slices.Equal(b.audit, o.audit):
		return fmt.Sprintf("ledgers %+v vs %+v", b.audit, o.audit)
	case b.demand != o.demand || b.grants != o.grants || b.total != o.total:
		return fmt.Sprintf("transfer split %d/%d of %d vs %d/%d of %d", b.demand, b.grants, b.total, o.demand, o.grants, o.total)
	case len(b.records) != len(o.records):
		return fmt.Sprintf("%d records vs %d", len(b.records), len(o.records))
	case len(b.held) != len(o.held):
		return fmt.Sprintf("%d held pieces vs %d", len(b.held), len(o.held))
	}
	for id, e := range b.records {
		if oe, ok := o.records[id]; !ok || oe != e {
			return fmt.Sprintf("record %s: %+v vs %+v (present %v)", id, e, oe, ok)
		}
	}
	for id, h := range b.held {
		if oh, ok := o.held[id]; !ok || oh != h {
			return fmt.Sprintf("held piece %s: %+v vs %+v (present %v)", id, h, oh, ok)
		}
	}
	return ""
}

// validVersions is a model of §4.2 at the hops of one path: per hop, per EER,
// the versions the hop granted that are still usable at the routers — every
// one of them until its own expiry.
type validVersions [][][]EERVersion

func newValidVersions(hops int, gs []*EERGrant) validVersions {
	v := make(validVersions, hops)
	for h := range v {
		v[h] = make([][]EERVersion, len(gs))
		for e, g := range gs {
			v[h][e] = []EERVersion{{BwKbps: uint64(g.Res.BwKbps), ExpT: g.Res.ExpT}}
		}
	}
	return v
}

// peak is the largest bandwidth of EER e's versions valid at hop h at now.
func (v validVersions) peak(h, e int, now uint32) (bw uint64) {
	for _, ver := range v[h][e] {
		if ver.ExpT > now {
			bw = max(bw, ver.BwKbps)
		}
	}
	return bw
}

// check demands that hop h (service s) charges every EER of gs at least the
// peak of its valid versions now: the maximum over its versions, the ones a
// renewal to less replaced included.
func (v validVersions) check(t *testing.T, s *Service, gs []*EERGrant, h int, step string) {
	t.Helper()
	now := s.clock()
	for e, g := range gs {
		k := coveringSegs(nil, len(g.SegIDs), g.Splits, len(g.PathHops), h)[0]
		if want, got := v.peak(h, e, now), chargeOf(s.cp, g.ID, g.SegIDs[k], now); got < want {
			t.Fatalf("%s: hop %d (%s) charges EER %s %d kbps, a valid version of it has %d (§4.2)",
				step, h, s.ia, g.ID, got, want)
		}
	}
}

// waveOf is the one-item tag-7 wave that renews what req, a tag-5 renewal, renews.
func waveOf(req *EESetupReq) *EEBatchRenewReq {
	return &EEBatchRenewReq{
		SegIDs: req.SegIDs, Splits: req.Splits, Path: req.Path,
		Items: []EEBatchItem{{ID: req.ID, Ver: req.Ver, BwKbps: req.BwKbps, ExpT: req.ExpT,
			SrcHost: req.SrcHost, DstHost: req.DstHost}},
		Accums: []uint64{req.AccumKbps}, Status: []Refusal{Granted},
	}
}

func signWave(t testing.TB, signer *Service, req *EEBatchRenewReq) []byte {
	t.Helper()
	req.Macs = signFor(t, signer, req.Path, req.Body())
	return req.Marshal()
}

// TestSoloIsAWaveOfOne drives one random sequence of renewals — growing,
// shrinking below a version still valid, oversubscribed, retries of a committed
// version, second renewals within a second, renewals of a record some hop
// lost, renewals the destination vetoes — through tag 5 on one fabric and
// through one-item tag-7 waves on its twin, from the first transit hop on, so
// that the message crosses each kind of hop: single-segment transit, up→core
// transfer, core→down pair, last hop. After every step every hop must hold the
// same records (throttle stamps included), held pieces, engine counters,
// ledgers and transfer-split books on both fabrics, the two answers must agree,
// and every hop must charge each EER at least the peak of its valid versions
// (§4.2).
func TestSoloIsAWaveOfOne(t *testing.T) {
	const nEER, steps = 8, 160
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			// The destination of both fabrics refuses one host during a step.
			var refused uint32
			build := func() (*fabric, []*EERGrant, reservation.ID, reservation.ID) {
				f := cpFabric(t, 4, func(iaKey topology.IA, cfg *Config) {
					highRate(iaKey, cfg)
					if iaKey == ia(2, 11) {
						cfg.DstApprove = func(_ reservation.ID, _, dstHost uint32, _ uint64, _ uint32) bool { return dstHost != refused }
					}
				})
				up, core, _ := f.setupAllSegRs(t, 20_000)
				return f, requestEERs(t, f.services[ia(1, 11)], nEER, 1_000), up.ID, core.ID
			}
			fa, ga, up, core := build() // tag 5
			fb, gb, _, _ := build()     // tag 7
			path := ga[0].PathHops
			valid := newValidVersions(len(path), ga)
			rng := rand.New(rand.NewSource(seed))
			ver := make([]uint16, nEER)
			last := make([]*EESetupReq, nEER) // the newest renewal that was granted
			for i := range ver {
				ver[i] = 1
			}
			seen := map[string]int{}
			for step := 0; step < steps; step++ {
				if rng.Intn(3) > 0 { // else: the same second again
					fa.clock.Add(uint32(1 + rng.Intn(3)))
					fb.clock.Store(fa.clock.Load())
				}
				e := rng.Intn(nEER)
				refused = 0
				var req *EESetupReq
				switch k := rng.Intn(10); {
				case k == 0 && last[e] != nil:
					req = last[e]
					seen["retry"]++
				default:
					if k == 1 { // a hop lost the record
						h := 1 + rng.Intn(len(path)-1)
						for f, g := range map[*fabric]*EERGrant{fa: ga[e], fb: gb[e]} {
							s := f.services[path[h].IA]
							c, ok := coverOf(g.SegIDs, g.Splits, len(path), h)
							if !ok {
								t.Fatalf("hop %d: not covered by one or two SegRs", h)
							}
							s.cp.TeardownEERPath(g.ID, c.segs())
						}
						valid[h][e] = nil
						seen["lost"]++
					}
					if k == 2 {
						refused = ga[e].EER.DstHost
						seen["vetoed"]++
					}
					ver[e]++
					bw := uint64(200 + rng.Intn(6_000))
					if rng.Intn(8) == 0 {
						bw = 60_000 // more than any SegR has
					}
					req = renewalOf(ga[e], ver[e], bw, fa.now())
					if rng.Intn(4) == 0 {
						req.AccumKbps = bw / 2 // the source's own hop granted less
					}
				}
				solo, err := fa.services[path[1].IA].HandleMsg(signSolo(t, fa.services[ia(1, 11)], req))
				if err != nil {
					t.Fatal(err)
				}
				wave, err := fb.services[path[1].IA].HandleMsg(signWave(t, fb.services[ia(1, 11)], waveOf(req)))
				if err != nil {
					t.Fatal(err)
				}
				sr, err := UnmarshalEESetupResp(solo)
				if err != nil {
					t.Fatal(err)
				}
				wr, err := UnmarshalEEBatchRenewResp(wave)
				if err != nil || wr.Refusal != Granted {
					t.Fatalf("step %d: wave answer %+v, %v", step, wr, err)
				}
				if sr.Refusal != wr.Status[0] || (sr.Refusal == Granted && sr.FinalKbps != wr.Granted[0]) {
					t.Fatalf("step %d (%+v): tag 5 answers %v %d kbps, tag 7 status %v %d kbps",
						step, req, sr.Refusal, sr.FinalKbps, wr.Status[0], wr.Granted[0])
				}
				switch sr.Refusal {
				case Granted:
					if sr.FinalKbps < valid.peak(1, e, fa.now()) {
						seen["downward"]++
					}
					for h := range path {
						valid[h][e] = append(valid[h][e], EERVersion{BwKbps: sr.FinalKbps, ExpT: req.ExpT})
					}
					last[e] = req
					seen["granted"]++
				case RefusedThrottled:
					seen["throttled"]++
				default:
					seen["refused"]++
				}
				for h := 1; h < len(path); h++ {
					a, b := booksOf(fa.services[path[h].IA], up, core), booksOf(fb.services[path[h].IA], up, core)
					if d := a.diff(b); d != "" {
						t.Fatalf("step %d (%+v, tag 5 %v): hop %d (%s) diverges, tag 5 vs tag 7: %s",
							step, req, sr.Refusal, h, path[h].IA, d)
					}
					valid.check(t, fa.services[path[h].IA], ga, h, fmt.Sprintf("step %d", step))
				}
			}
			for _, k := range []string{"granted", "downward", "refused", "throttled", "retry", "lost", "vetoed"} {
				if seen[k] == 0 {
					t.Errorf("sequence too tame: %v", seen)
					break
				}
			}
		})
	}
}

// TestWaveItemsMustShareSource is the regression test of a cross-source wave.
// A wave is authenticated under its first item's source AS only, so an AS on
// nobody's path could sign a wave whose first item is its own and whose second
// is another AS's live EER: the parent shrank, re-versioned and throttle-stamped
// the victim's record at every transit hop they share, and the bandwidth so
// freed is bandwidth the victim still sends on. Such a wave is malformed: it is
// refused whole and changes nothing, at the hop it is sent to and behind it.
func TestWaveItemsMustShareSource(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	up, core, _ := f.setupAllSegRs(t, 100_000)
	src, attacker := f.services[ia(1, 11)], f.services[ia(2, 1)]
	victim := requestEERs(t, src, 1, 8_000)[0]
	path := victim.PathHops
	f.clock.Add(1)
	before := make([]hopBooks, len(path))
	for h := range path {
		before[h] = booksOf(f.services[path[h].IA], up.ID, core.ID)
	}
	own := EEBatchItem{ID: reservation.ID{SrcAS: attacker.ia, Num: 1}, Ver: 1, BwKbps: 1, ExpT: f.now() + 2}
	theirs := EEBatchItem{ID: victim.ID, Ver: victim.Res.Ver + 1, BwKbps: 1, ExpT: f.now() + 2,
		SrcHost: victim.EER.SrcHost, DstHost: victim.EER.DstHost}
	for name, items := range map[string][]EEBatchItem{"own first": {own, theirs}, "victim's first": {theirs, own}} {
		msg := signWave(t, attacker, forgedWave(victim, items))
		for h := 1; h < len(path); h++ {
			out, err := f.services[path[h].IA].HandleMsg(msg)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := UnmarshalEEBatchRenewResp(out)
			if err != nil || resp.Refusal != RefusedMalformed || int(resp.FailedAt) != h {
				t.Fatalf("%s, sent to hop %d: %v status=%v failed at %d, %v; want the wave refused there as malformed",
					name, h, resp.Refusal, resp.Status, resp.FailedAt, err)
			}
		}
	}
	for h := range path {
		if d := before[h].diff(booksOf(f.services[path[h].IA], up.ID, core.ID)); d != "" {
			t.Errorf("hop %d (%s) changed by the forged waves: %s", h, path[h].IA, d)
		}
	}
	// The victim's own renewal of that second is not throttled.
	if g, err := src.RenewEER(victim, 8_000); err != nil || grantBw(g) != 8_000 {
		t.Fatalf("the victim's renewal after the forged waves: %+v, %v", g, err)
	}
}

// forgedWave is a wave over victim's chain carrying items.
func forgedWave(victim *EERGrant, items []EEBatchItem) *EEBatchRenewReq {
	req := &EEBatchRenewReq{SegIDs: victim.SegIDs, Splits: victim.Splits, Path: victim.PathHops, Items: items}
	for _, it := range items {
		req.Accums = append(req.Accums, it.BwKbps)
		req.Status = append(req.Status, Granted)
	}
	return req
}

// TestActivationRefusedBelowEERDemand: a pending SegR version smaller than the
// EER bandwidth admitted over the SegR is not activated ("ensure that no
// over-allocation with EERs can occur", §4.2) — the demand is read from the
// ledger the hop leg charges — and one that covers it is.
func TestActivationRefusedBelowEERDemand(t *testing.T) {
	f := cpFabric(t, 4, nil)
	up, _, _ := f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	requestEERs(t, src, 1, 8_000)
	ver, final, err := src.RenewSegment(up.ID, 0, 5_000)
	if err != nil || final != 5_000 {
		t.Fatalf("renewal to 5000 kbps: ver %d, %d kbps, %v", ver, final, err)
	}
	if err := src.ActivateSegment(up.ID, ver); !errors.Is(err, RefusedBelowAllocated) {
		t.Fatalf("activating 5000 kbps under 8000 kbps of EERs: err = %v", err)
	}
	if allocated, _ := src.CPlane().SegDemandMax(up.ID); allocated != 8_000 {
		t.Fatalf("allocated EER bandwidth on %s: %d kbps, want 8000", up.ID, allocated)
	}
	for _, h := range up.Seg.Hops {
		if r, _ := f.services[h.IA].Store().GetSegR(up.ID); r.Active.BwKbps != 100_000 || r.Active.Ver != 1 {
			t.Errorf("AS %s switched to %+v", h.IA, r.Active)
		}
	}
	if ver, _, err = src.RenewSegment(up.ID, 0, 8_000); err != nil {
		t.Fatal(err)
	}
	if err := src.ActivateSegment(up.ID, ver); err != nil {
		t.Fatalf("activating 8000 kbps under 8000 kbps of EERs: %v", err)
	}
}

// TestWindowBeyondLifetimeRefused: a hop charges no EER window longer than one
// EER lifetime and admits no SegR version longer than one SegR lifetime. A
// signed wave item or solo renewal asking ExpT = now + 400 is refused at hop 1
// with RefusedBandwidth before anything is looked up, charged or stamped — the
// ledgers of every hop are as they were, and the EER's own renewal of that
// second is not throttled — and a SegR setup asking now + 10 000 is refused
// with RefusedMalformed. Every AS of the fabric shares one clock.
func TestWindowBeyondLifetimeRefused(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	up, _, _ := f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	g := requestEERs(t, src, 1, 1_000)[0]
	f.clock.Add(1)
	ledgers := func() (out [][]SegRAudit) {
		for _, h := range g.PathHops {
			out = append(out, f.services[h.IA].CPlane().AuditLedgers(f.now(), f.now()+500))
		}
		return out
	}
	before := ledgers()
	hop1 := f.services[g.PathHops[1].IA]
	far := f.now() + 400
	wave := signedWave(t, src, []*EERGrant{g})
	wave.Items[0].ExpT = far
	out, err := hop1.HandleMsg(signWave(t, src, wave))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := UnmarshalEEBatchRenewResp(out); err != nil || resp.Status[0] != RefusedBandwidth || resp.Granted[0] != 0 {
		t.Fatalf("a wave item asking %d s: %+v, %v; want it refused for bandwidth", far-f.now(), resp, err)
	}
	renewal := renewalOf(g, g.Res.Ver+1, 1_000, f.now())
	renewal.ExpT = far
	if out, err = hop1.HandleMsg(signSolo(t, src, renewal)); err != nil {
		t.Fatal(err)
	}
	if code, at := answerOf(out); code != RefusedBandwidth || at != 1 {
		t.Fatalf("a renewal asking %d s: %v at hop %d; want RefusedBandwidth at hop 1", far-f.now(), code, at)
	}
	if after := ledgers(); !reflect.DeepEqual(before, after) {
		t.Fatalf("the ledgers changed:\nbefore %+v\nafter  %+v", before, after)
	}
	if _, err := src.RenewEER(g, 1_000); err != nil {
		t.Fatalf("the EER's own renewal after the refused ones: %v", err)
	}
	seg := &SegSetupReq{ID: reservation.ID{SrcAS: src.ia, Num: 1 << 22}, SegType: up.SegType, Path: HopsFromSegment(up.Seg),
		MaxKbps: 100, AccumKbps: 100, ExpT: f.now() + 10_000, Ver: 1}
	seg.Macs = signFor(t, src, seg.Path, seg.Body())
	if out, err = f.services[seg.Path[1].IA].HandleMsg(seg.Marshal()); err != nil {
		t.Fatal(err)
	}
	if code, at := answerOf(out); code != RefusedMalformed || at != 1 {
		t.Fatalf("a SegR setup asking 10 000 s: %v at hop %d; want RefusedMalformed at hop 1", code, at)
	}
	if _, err := f.services[seg.Path[1].IA].Store().GetSegR(seg.ID); err == nil {
		t.Fatal("hop 1 holds the SegR it refused")
	}
}
