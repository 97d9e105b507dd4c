package cserv

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"colibri/internal/admission"
	"colibri/internal/reservation"
	"colibri/internal/restree"
)

// The demand ledgers are keyless: a charge exists only as numbers added to a
// profile, and the EER record is the one thing that can take them out again. A
// record written without its charge, or a charge withdrawn with other numbers
// than it was made with, is a disagreement nothing heals — so the books are
// audited from outside, after every operation the engine has.

// auditBooks demands that every ledger carries, at every epoch of its ring,
// exactly the sum of the records charged on it, and counts exactly the live
// ones. It advances every ledger to now first (AuditLedgers does).
func auditBooks(t *testing.T, cp *CPlane, now uint32, step string) {
	t.Helper()
	type rec struct {
		id reservation.ID
		e  cpEER
	}
	var recs []rec
	for _, sh := range cp.shards {
		sh.mu.Lock()
		for id, e := range sh.eers {
			recs = append(recs, rec{id, e})
		}
		sh.mu.Unlock()
	}
	if got := cp.Counts().EERs; got != int64(len(recs)) {
		t.Fatalf("%s: Counts().EERs = %d, %d records", step, got, len(recs))
	}
	sec := cp.epochSec
	floor := now / sec
	ceil := func(x uint32) uint32 { return (x + sec - 1) / sec }
	for _, row := range cp.AuditLedgers(now, now+1) {
		live := 0
		for _, r := range recs {
			if (r.e.seg == row.Seg || r.e.seg2 == row.Seg) && ceil(r.e.expT) > floor {
				live++
			}
		}
		if row.LiveEERs != live {
			t.Fatalf("%s: SegR %s: ledger counts %d live charges, %d live records", step, row.Seg, row.LiveEERs, live)
		}
		sh := cp.shardFor(row.Seg)
		for ep := floor; ep < floor+uint32(cp.ledgerEpochs); ep++ {
			var want int64
			for _, r := range recs {
				if (r.e.seg == row.Seg || r.e.seg2 == row.Seg) && r.e.startT/sec <= ep && ep < ceil(r.e.expT) {
					want += int64(r.e.bw)
				}
			}
			sh.mu.Lock()
			got := sh.ledgers[row.Seg].DemandAt(ep * sec)
			sh.mu.Unlock()
			if got != want {
				t.Fatalf("%s: SegR %s epoch %d (floor %d): ledger %d, records %d", step, row.Seg, ep, floor, got, want)
			}
		}
	}
}

// TestBooksAgree drives a sharded engine through random sequences of every
// operation that charges or discharges — setups now and ahead of time, renewals
// granted, shrunk, refused for bandwidth and refused for their window (both put
// the old version back), batch renewals, adjustments down and to zero,
// restores of live, expired and unknown versions, teardowns, SegR drops and
// grant cuts, Tick, with a third of the EERs transfer-AS pairs whose SegRs
// mostly sit in different shards — and audits the books after each.
func TestBooksAgree(t *testing.T) {
	const nSeg, nEER, steps = 6, 40, 1500
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clk := newCPClock(1000)
			cp, err := NewCPlane(CPlaneConfig{
				AS:           cplaneAS(t, 4, 1_000_000),
				Split:        admission.DefaultSplit,
				Shards:       4,
				LedgerEpochs: 16, // 64 s: a renewal asking for more is refused for its window
				Clock:        clk.now,
			})
			if err != nil {
				t.Fatal(err)
			}
			var expired []reservation.ID
			cp.OnExpire(func(seg, seg2 reservation.ID, bw uint64) { expired = append(expired, seg2) })
			segs := make([]admission.Request, nSeg)
			for i := range segs {
				segs[i] = segReq(uint32(i), 50, 1, 2, 20_000)
				if _, err := cp.AddSegR(segs[i]); err != nil {
					t.Fatal(err)
				}
			}
			// An EER's covering set never changes, as a chain's does not.
			geom := make([][]reservation.ID, nEER)
			crossShard := false
			for i := range geom {
				a := segs[i%nSeg].ID
				geom[i] = []reservation.ID{a}
				if i%3 == 0 {
					b := segs[(i/3+1+i%nSeg)%nSeg].ID
					if b != a {
						geom[i] = append(geom[i], b)
						crossShard = crossShard || cp.shardIndex(a) != cp.shardIndex(b)
					}
				}
			}
			if !crossShard {
				t.Fatal("no transfer pair spans two shards: the test would not reach the two-lock paths")
			}
			var ver uint16
			seen := map[string]int{}
			note := func(what string, err error) {
				switch {
				case err == nil:
					seen[what+" ok"]++
				case errors.Is(err, ErrInsufficient):
					seen[what+" insufficient"]++
				case errors.Is(err, restree.ErrWindow):
					seen[what+" window"]++
				default:
					seen[what+" "+err.Error()]++
				}
			}
			for step := 0; step < steps; step++ {
				now := clk.now()
				i := rng.Intn(nEER)
				id, g := eid(uint32(i)), geom[i]
				bw := uint64(500 + rng.Intn(6_000))
				expT := now + 1 + uint32(rng.Intn(20))
				if rng.Intn(12) == 0 {
					expT = now + 100 // past the ring
				}
				ver++
				var op string
				switch k := rng.Intn(16); k {
				case 0, 1, 2:
					op = "setup"
					note(op, cp.SetupEERPath(id, g, bw, expT, ver))
				case 3:
					op = "setup ahead"
					if len(g) == 1 {
						start := now + uint32(rng.Intn(40))
						note(op, cp.SetupEERAt(id, g[0], bw, start, start+1+uint32(rng.Intn(30))))
					}
				case 4, 5, 6:
					op = "renew"
					_, err := cp.RenewEERPath(id, g, bw, expT, ver)
					note(op, err)
				case 7:
					op = "renew batch"
					items := make([]EERRenewal, 8)
					for j := range items {
						e := rng.Intn(nEER)
						items[j] = EERRenewal{EER: eid(uint32(e)), Seg: geom[e][0], BwKbps: bw, ExpT: expT, Ver: ver}
					}
					results := make([]RenewResult, len(items))
					cp.RenewBatch(items, results)
					for _, r := range results {
						note(op, r.Err)
					}
				case 8:
					op = "adjust"
					cp.AdjustEERPath(id, g, uint64(rng.Intn(3))*bw/4)
				case 9:
					op = "restore"
					cp.RestoreEERPath(id, g, bw/2, now-3+uint32(rng.Intn(12)), ver)
				case 10:
					op = "teardown"
					cp.TeardownEERPath(id, g)
				case 11:
					op = "teardown single"
					if len(g) == 1 {
						cp.TeardownEER(id, g[0])
					}
				case 12:
					op = "drop SegR"
					if rng.Intn(4) == 0 {
						s := segs[rng.Intn(nSeg)]
						cp.DropSegR(s.ID)
						if _, err := cp.AddSegR(s); err != nil {
							t.Fatal(err)
						}
					}
				case 13:
					op = "cut grant" // a full SegR refuses renewals: the old version goes back
					s := segs[rng.Intn(nSeg)]
					if rng.Intn(2) == 0 {
						err = cp.AdjustSegR(s.ID, 2_000)
					} else {
						_, _, err = cp.RenewSegRWithUndo(s)
					}
					if err != nil {
						t.Fatal(err)
					}
				case 14:
					op = "tick"
					cp.Tick()
				case 15:
					op = "clock"
					clk.step(uint32(1 + rng.Intn(6)))
				}
				auditBooks(t, cp, clk.now(), fmt.Sprintf("step %d (%s)", step, op))
			}
			for _, want := range []string{"setup ok", "setup insufficient", "setup ahead ok", "renew ok",
				"renew insufficient", "renew window", "renew batch ok", "renew batch " + ErrTransferEER.Error()} {
				if seen[want] == 0 {
					t.Errorf("the sequence never produced %q: %v", want, seen)
				}
			}
			if len(expired) == 0 {
				t.Error("Tick never expired a transfer-AS record")
			}
			// Drain: once every record has lapsed and Tick has run, nothing is left.
			clk.step(200)
			cp.Tick()
			auditBooks(t, cp, clk.now(), "drained")
			if n := cp.Counts().EERs; n != 0 {
				t.Errorf("%d records left after every version lapsed", n)
			}
			for _, s := range segs {
				if err := cp.TeardownSegR(s.ID); err != nil {
					t.Errorf("TeardownSegR(%s) after drain: %v", s.ID, err)
				}
			}
		})
	}
}

// TestDischargeOnlyWhereCharged: a transfer-AS record torn down under another
// covering set than it was admitted under takes its charge out of the ledgers
// both sets name and leaves the others alone — a keyless ledger cannot tell a
// charge it never had from one it has.
func TestDischargeOnlyWhereCharged(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 4, clk)
	var ids [3]reservation.ID
	for i := range ids {
		req := segReq(uint32(i), 50, 1, 2, 10_000)
		if _, err := cp.AddSegR(req); err != nil {
			t.Fatal(err)
		}
		ids[i] = req.ID
	}
	a, b, c := ids[0], ids[1], ids[2]
	if err := cp.SetupEERPath(eid(1), []reservation.ID{a, b}, 4_000, clk.now()+16, 1); err != nil {
		t.Fatal(err)
	}
	cp.TeardownEERPath(eid(1), []reservation.ID{a, c})
	for _, tc := range []struct {
		seg  reservation.ID
		want uint64
	}{{a, 0}, {b, 4_000}, {c, 0}} {
		if got, _ := cp.SegDemandMax(tc.seg); got != tc.want {
			t.Errorf("demand on %s = %d, want %d", tc.seg, got, tc.want)
		}
	}
	// What was left on b lapses with the version it belonged to.
	clk.step(20)
	if got, _ := cp.SegDemandMax(b); got != 0 {
		t.Errorf("demand on %s after the version lapsed = %d, want 0", b, got)
	}
}

// TestSecondLedgerRefusalLeavesFirstUntouched is App. D's split admission on
// the engine that carries it: a transfer-AS EER is admitted against two SegRs
// that live in different shards, in one step per SegR, and when the second
// SegR's ledger has no room the first is left as it was — no charge, no record.
func TestSecondLedgerRefusalLeavesFirstUntouched(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 8, clk)
	wide := segReq(1, 50, 1, 2, 10_000)
	narrow := segReq(2, 50, 1, 2, 500)
	for cp.shardIndex(narrow.ID) == cp.shardIndex(wide.ID) {
		narrow.ID.Num++
	}
	for _, req := range []admission.Request{wide, narrow} {
		if _, err := cp.AddSegR(req); err != nil {
			t.Fatal(err)
		}
	}
	a, b := wide.ID, narrow.ID
	demands := func(step string, want uint64) {
		t.Helper()
		for _, seg := range []reservation.ID{a, b} {
			if got, _ := cp.SegDemandMax(seg); got != want {
				t.Errorf("%s: demand on %s = %d, want %d", step, seg, got, want)
			}
		}
		auditBooks(t, cp, clk.now(), step)
	}
	if err := cp.SetupEERPath(eid(1), []reservation.ID{a, b}, 400, clk.now()+16, 1); err != nil {
		t.Fatal(err)
	}
	demands("first EER", 400)
	// 400 more fits the first SegR a dozen times over and not the second.
	if err := cp.SetupEERPath(eid(2), []reservation.ID{a, b}, 400, clk.now()+16, 1); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("second EER: err = %v, want ErrInsufficient", err)
	}
	demands("refused EER", 400)
	if _, _, _, ok := cp.LookupEER(eid(2), a); ok || cp.Counts().EERs != 1 {
		t.Errorf("refused EER left a record (%d EERs)", cp.Counts().EERs)
	}
	// A renewal is cut to what both have once its own charge is withdrawn.
	clk.step(1)
	if g, err := cp.RenewEERPath(eid(1), []reservation.ID{a, b}, 800, clk.now()+16, 2); err != nil || g != 500 {
		t.Fatalf("renewal: granted %d, err %v, want 500", g, err)
	}
	demands("renewal", 500)
}

// TestSetupAheadPastTheRingRefused pins the ring horizon through the engine: a
// slice bought ahead that ends past the ledger's ring is refused, and leaves no
// phantom demand at the present.
func TestSetupAheadPastTheRingRefused(t *testing.T) {
	clk := newCPClock(1000)
	cp, err := NewCPlane(CPlaneConfig{
		AS:           cplaneAS(t, 4, 1_000_000),
		Split:        admission.DefaultSplit,
		LedgerEpochs: 8, // 32 s
		Clock:        clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	seg := segReq(1, 50, 1, 2, 10_000)
	if _, err := cp.AddSegR(seg); err != nil {
		t.Fatal(err)
	}
	if err := cp.SetupEERAt(eid(1), seg.ID, 7, 1032, 1036); !errors.Is(err, restree.ErrWindow) {
		t.Fatalf("slice past the ring: err = %v, want ErrWindow", err)
	}
	if got := cp.SegAvail(seg.ID, 1000, 1004); got != 10_000 {
		t.Errorf("SegAvail now = %d, want the whole grant (no phantom of the refused slice)", got)
	}
	if err := cp.SetupEERAt(eid(1), seg.ID, 7, 1028, 1032); err != nil {
		t.Errorf("slice ending with the ring: err = %v, want nil", err)
	}
	if got := cp.SegAvail(seg.ID, 1000, 1004); got != 10_000 {
		t.Errorf("SegAvail now = %d, want the whole grant (the slice lies ahead)", got)
	}
	if got := cp.SegAvail(seg.ID, 1028, 1032); got != 10_000-7 {
		t.Errorf("SegAvail over the slice = %d, want %d", got, 10_000-7)
	}
	// Asking about a window ahead moved nothing: a charge of the present is
	// still there afterwards.
	if err := cp.SetupEER(eid(2), seg.ID, 100, 1016); err != nil {
		t.Fatal(err)
	}
	cp.SegAvail(seg.ID, 1028, 1032)
	if got := cp.SegAvail(seg.ID, 1000, 1004); got != 10_000-100 {
		t.Errorf("SegAvail now, after a query about a later window = %d, want %d", got, 10_000-100)
	}
}
