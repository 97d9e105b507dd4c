// hopleg_test.go — what the shared hop leg (hopleg.go) must keep true: a solo
// renewal and a wave of one are the same decision, a wave cannot reach another
// source's EERs, and the activation guard reads the ledger the leg charges.
package cserv

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"colibri/internal/reservation"
)

// hopBooks is everything admission keeps at one service.
type hopBooks struct {
	records        map[reservation.ID]cpEER
	counts         CPlaneCounts
	audit          []SegRAudit
	demand, grants uint64 // the transfer split's, for the chain's up→core pair
}

func booksOf(s *Service, up, core reservation.ID) hopBooks {
	b := hopBooks{records: make(map[reservation.ID]cpEER), counts: s.cp.Counts()}
	for _, sh := range s.cp.shards {
		sh.mu.Lock()
		for id, e := range sh.eers {
			b.records[id] = e
		}
		sh.mu.Unlock()
	}
	now := s.clock()
	b.audit = s.cp.AuditLedgers(now, now+4*reservation.EERLifetimeSeconds)
	b.demand, b.grants = s.transfer.Books(core, up)
	return b
}

func (b hopBooks) diff(o hopBooks) string {
	switch {
	case b.counts != o.counts:
		return fmt.Sprintf("counts %+v vs %+v", b.counts, o.counts)
	case !slices.Equal(b.audit, o.audit):
		return fmt.Sprintf("ledgers %+v vs %+v", b.audit, o.audit)
	case b.demand != o.demand || b.grants != o.grants:
		return fmt.Sprintf("transfer split %d/%d vs %d/%d", b.demand, b.grants, o.demand, o.grants)
	case len(b.records) != len(o.records):
		return fmt.Sprintf("%d records vs %d", len(b.records), len(o.records))
	}
	for id, e := range b.records {
		if oe, ok := o.records[id]; !ok || oe != e {
			return fmt.Sprintf("record %s: %+v vs %+v (held %v)", id, e, oe, ok)
		}
	}
	return ""
}

// waveOf is the one-item tag-7 wave that renews what req, a tag-5 renewal, renews.
func waveOf(req *EESetupReq) *EEBatchRenewReq {
	return &EEBatchRenewReq{
		SegIDs: req.SegIDs, Splits: req.Splits, Path: req.Path,
		Items: []EEBatchItem{{ID: req.ID, Ver: req.Ver, BwKbps: req.BwKbps, ExpT: req.ExpT,
			SrcHost: req.SrcHost, DstHost: req.DstHost}},
		Accums: []uint64{req.AccumKbps}, Status: []uint8{EEItemOK},
	}
}

func signWave(t testing.TB, signer *Service, req *EEBatchRenewReq) []byte {
	t.Helper()
	macs, err := signer.computeMacs(req.Path, req.Body())
	if err != nil {
		t.Fatal(err)
	}
	req.Macs = macs
	return req.Marshal()
}

// TestSoloIsAWaveOfOne drives one random sequence of renewals — growing,
// shrinking, oversubscribed, retries of a committed version, second renewals
// within a second, renewals of a record some hop lost — through tag 5 on one
// fabric and through one-item tag-7 waves on its twin, from the first transit
// hop on, so that the message crosses each kind of hop: single-segment transit,
// up→core transfer, core→down pair, last hop. After every step every hop must
// hold the same records (throttle stamps included), engine counters, ledgers
// and transfer-split books on both fabrics, and the two answers must agree.
func TestSoloIsAWaveOfOne(t *testing.T) {
	const nEER, steps = 8, 160
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			build := func() (*fabric, []*EERGrant, reservation.ID, reservation.ID) {
				f := cpFabric(t, 4, highRate)
				up, core, _ := f.setupAllSegRs(t, 20_000)
				return f, requestEERs(t, f.services[ia(1, 11)], nEER, 1_000), up.ID, core.ID
			}
			fa, ga, up, core := build() // tag 5
			fb, gb, _, _ := build()     // tag 7
			path := ga[0].PathHops
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
							c, err := s.hopCover(g.SegIDs, g.Splits, len(path), h)
							if err != nil {
								t.Fatal(err)
							}
							s.cp.TeardownEERPath(g.ID, c.segs())
						}
						seen["lost"]++
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
				if err != nil || !wr.OK {
					t.Fatalf("step %d: wave answer %+v, %v", step, wr, err)
				}
				if granted := wr.Status[0] == EEItemOK; sr.OK != granted || (granted && sr.FinalKbps != wr.Granted[0]) {
					t.Fatalf("step %d (%+v): tag 5 answers ok=%v %d kbps (%s), tag 7 status %d %d kbps",
						step, req, sr.OK, sr.FinalKbps, sr.Reason, wr.Status[0], wr.Granted[0])
				}
				switch {
				case sr.OK:
					last[e] = req
					seen["granted"]++
				case strings.Contains(sr.Reason, "renewal rate limit"):
					seen["throttled"]++
				default:
					seen["refused"]++
				}
				for h := 1; h < len(path); h++ {
					a, b := booksOf(fa.services[path[h].IA], up, core), booksOf(fb.services[path[h].IA], up, core)
					if d := a.diff(b); d != "" {
						t.Fatalf("step %d (%+v, tag 5 ok=%v %q): hop %d (%s) diverges, tag 5 vs tag 7: %s",
							step, req, sr.OK, sr.Reason, h, path[h].IA, d)
					}
				}
			}
			for _, k := range []string{"granted", "refused", "throttled", "retry", "lost"} {
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
			if err != nil || resp.OK || resp.Reason != "malformed batch" || int(resp.FailedAt) != h {
				t.Fatalf("%s, sent to hop %d: ok=%v status=%v failed at %d %q, %v; want the wave refused there as malformed",
					name, h, resp.OK, resp.Status, resp.FailedAt, resp.Reason, err)
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
		req.Status = append(req.Status, EEItemOK)
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
	if err := src.ActivateSegment(up.ID, ver); err == nil || !strings.Contains(err.Error(), "below allocated EER bandwidth (8000 kbps)") {
		t.Fatalf("activating 5000 kbps under 8000 kbps of EERs: err = %v", err)
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
