package cserv

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"colibri/internal/admission"
	"colibri/internal/reservation"
	"colibri/internal/restree"
)

// The demand ledgers are keyless: a charge exists only as numbers added to a
// profile, and the EER record is the one thing that can take them out again. A
// record written without its charge, or a charge withdrawn with other numbers
// than it was made with, is a disagreement nothing heals — so the books are
// audited from outside, after every operation the engine has.

// bookedEER is one record with its held piece, if it has one, as the books
// must show it.
type bookedEER struct {
	id        reservation.ID
	seg, seg2 reservation.ID // the record's SegRs, by ID
	e         cpEER
	h         heldPiece
}

// segIDOf resolves a SegR handle a record carries to the SegR's ID, and 0 to
// the zero ID.
func segIDOf(cp *CPlane, h segH) reservation.ID {
	if h == 0 {
		return reservation.ID{}
	}
	sh := cp.shards[cp.shardOf(h)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return cp.slot(h).id
}

// resolve fills in the record's SegR IDs; the caller holds no shard lock.
func (r *bookedEER) resolve(cp *CPlane) {
	r.seg, r.seg2 = segIDOf(cp, r.e.seg), segIDOf(cp, r.e.seg2)
}

// charges returns the record's and the held piece's charge on seg at epoch ep,
// and how many of the two are live at floor.
func (r *bookedEER) charges(seg reservation.ID, ep, floor, sec uint32) (bw int64, live int) {
	if r.seg != seg && r.seg2 != seg {
		return 0, 0
	}
	ceil := func(x uint32) uint32 { return (x + sec - 1) / sec }
	for _, c := range []struct {
		on           bool
		bw           uint64
		startT, expT uint32
	}{{true, uint64(r.e.bw), r.e.startT, r.e.expT}, {r.e.held, r.h.charge, r.h.startT, r.h.expT}} {
		if !c.on {
			continue
		}
		if c.startT/sec <= ep && ep < ceil(c.expT) {
			bw += int64(c.bw)
		}
		if ceil(c.expT) > floor {
			live++
		}
	}
	return bw, live
}

// bookedEERs reads every record of cp with its held piece, and demands that
// the held tables hold exactly the pieces the records flag.
func bookedEERs(t *testing.T, cp *CPlane, step string) []bookedEER {
	t.Helper()
	var recs []bookedEER
	for _, sh := range cp.shards {
		sh.mu.Lock()
		flagged := 0
		for i := range sh.eers.Len() {
			id, e := sh.eers.At(i)
			r := bookedEER{id: id, e: *e}
			if h := sh.held.Get(id); e.held != (h != nil) {
				t.Fatalf("%s: record %s flags held=%v, held table has %v", step, id, e.held, h != nil)
			} else if h != nil {
				r.h = *h
				flagged++
			}
			recs = append(recs, r)
		}
		pieces := sh.held.Len()
		sh.mu.Unlock()
		if pieces != flagged {
			t.Fatalf("%s: a shard's held table has %d pieces, its records flag %d", step, pieces, flagged)
		}
	}
	for i := range recs {
		recs[i].resolve(cp)
	}
	return recs
}

// auditBooks demands that every ledger carries, at every epoch of its ring,
// exactly the sum of the records and held pieces charged on it, and counts
// exactly the live ones. It advances every ledger to now first (AuditLedgers
// does).
func auditBooks(t *testing.T, cp *CPlane, now uint32, step string) {
	t.Helper()
	recs := bookedEERs(t, cp, step)
	if got := cp.Counts().EERs; got != int64(len(recs)) {
		t.Fatalf("%s: Counts().EERs = %d, %d records", step, got, len(recs))
	}
	sec := cp.epochSec
	floor := now / sec
	for _, row := range cp.AuditLedgers(now, now+1) {
		live := 0
		for _, r := range recs {
			_, n := r.charges(row.Seg, floor, floor, sec)
			live += n
		}
		if row.LiveEERs != live {
			t.Fatalf("%s: SegR %s: ledger counts %d live charges, %d live records and held pieces", step, row.Seg, row.LiveEERs, live)
		}
		sh := cp.shardFor(row.Seg)
		for ep := floor; ep < floor+uint32(cp.ledgerEpochs); ep++ {
			var want int64
			for _, r := range recs {
				bw, _ := r.charges(row.Seg, ep, floor, sec)
				want += bw
			}
			sh.mu.Lock()
			got := sh.segs[row.Seg].led.MaxDemand(ep*sec, ep*sec+1)
			sh.mu.Unlock()
			if got != want {
				t.Fatalf("%s: SegR %s epoch %d (floor %d): ledger %d, records %d", step, row.Seg, ep, floor, got, want)
			}
		}
	}
}

// pairRecord returns EER id's record with its held piece when it is a pair
// record over g, its covering set, and the zero bookedEER otherwise.
func pairRecord(t *testing.T, cp *CPlane, id reservation.ID, g []reservation.ID) bookedEER {
	t.Helper()
	sh := cp.shardFor(g[0])
	sh.mu.Lock()
	e := sh.eers.Get(id)
	if e == nil || e.seg2 == 0 {
		sh.mu.Unlock()
		return bookedEER{}
	}
	r := bookedEER{id: id, e: *e}
	if h := sh.held.Get(id); h != nil {
		r.h = *h
	}
	sh.mu.Unlock()
	r.resolve(cp)
	if r.seg != g[0] || r.seg2 != g[1] {
		return bookedEER{}
	}
	return r
}

// chargeOf is what the books charge EER id on seg at time t: its record's
// charge and its held piece's.
func chargeOf(cp *CPlane, id, seg reservation.ID, t uint32) uint64 {
	sh := cp.shardFor(seg)
	sh.mu.Lock()
	e := sh.eers.Get(id)
	if e == nil {
		sh.mu.Unlock()
		return 0
	}
	r := bookedEER{id: id, e: *e}
	if h := sh.held.Get(id); h != nil {
		r.h = *h
	}
	sh.mu.Unlock()
	r.resolve(cp)
	bw, _ := r.charges(seg, t/cp.epochSec, 0, cp.epochSec)
	return uint64(bw)
}

// lapsedHeld counts the held pieces that have lapsed by now.
func lapsedHeld(cp *CPlane, now uint32) (n int) {
	for _, sh := range cp.shards {
		sh.mu.Lock()
		for i := range sh.held.Len() {
			if _, h := sh.held.At(i); h.expT <= now {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// TestHeldFlagCostsNoBytes: the held flag sits in what was the record's
// padding, so a CServ's resident EER state does not grow with §4.2's repair.
func TestHeldFlagCostsNoBytes(t *testing.T) {
	if got := unsafe.Sizeof(cpEER{}); got != 28 {
		t.Errorf("cpEER is %d bytes, want 28", got)
	}
}

// TestEERRecordIs40Bytes pins what an EER costs a CServ per AS in its record
// table: the key's 12 bytes and the 28-byte record, with no padding between
// (DESIGN.md §7). A field added to cpEER shows here.
func TestEERRecordIs40Bytes(t *testing.T) {
	var sh cplaneShard
	if got := sh.eers.RecordSize(); got != 40 {
		t.Errorf("the EER table's record is %d bytes, want 40", got)
	}
	if got := sh.held.RecordSize(); got != 32 {
		t.Errorf("the held table's record is %d bytes, want 32", got)
	}
}

// TestBooksAgree drives a sharded engine through random sequences of every
// operation that charges or discharges — setups, renewals granted, shrunk,
// refused for bandwidth and refused for their window (both put the old version
// back), downward renewals (whose old bandwidth stays charged until the old
// version expires, §4.2), renewals naming only a pair's first SegR (refused),
// adjustments down and to zero, restores of live, expired and unknown
// versions, teardowns, SegR drops and grant cuts, Tick, with a third of the
// EERs transfer-AS pairs whose SegRs mostly sit in different shards — and
// audits the books after each: records and held pieces against the ledgers,
// and no lapsed piece after Tick. Teardowns, adjustments and restores
// sometimes name only a pair's first SegR; they must leave its record alone,
// for rewriting or deleting it would strand the charge on the second.
func TestBooksAgree(t *testing.T) {
	const nSeg, nEER, steps = 6, 40, 1500
	// partial counts, over every seed, the mutations that named only the first
	// SegR of a live pair record.
	partial := map[string]int{}
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
				// mutate runs a teardown, adjustment or restore over the EER's
				// covering set, or — first — over only its first SegR. A live pair
				// record named so must come out as it went in.
				mutate := func(first bool, fn func(segs []reservation.ID)) {
					if !first || len(g) == 1 {
						fn(g)
						return
					}
					before := pairRecord(t, cp, id, g)
					fn(g[:1])
					if before == (bookedEER{}) {
						return
					}
					if after := pairRecord(t, cp, id, g); after != before {
						t.Fatalf("step %d (%s over the first of a pair's SegRs): record %+v became %+v", step, op, before, after)
					}
					partial[op]++
				}
				switch k := rng.Intn(16); k {
				case 0, 1, 2:
					op = "setup"
					note(op, cp.SetupEERPath(id, g, bw, expT, ver))
				case 3, 4, 5:
					op = "renew"
					_, err := cp.RenewEERPath(id, g, bw, expT, ver)
					note(op, err)
				case 6:
					// Eight renewals that each name only the EER's first SegR:
					// a pair's record refuses them with ErrTransferEER.
					op = "renew first"
					for range 8 {
						e := rng.Intn(nEER)
						_, err := cp.RenewEERPath(eid(uint32(e)), geom[e][:1], bw, expT, ver)
						note(op, err)
					}
				case 7:
					op = "adjust"
					prev := EERVersion{BwKbps: bw, ExpT: now + uint32(rng.Intn(12))}
					final := uint64(rng.Intn(3)) * bw / 4
					mutate(rng.Intn(3) == 0, func(segs []reservation.ID) { cp.AdjustEERPath(id, segs, final, prev, EERVersion{}) })
				case 8:
					op = "restore"
					held := EERVersion{BwKbps: bw, ExpT: now + uint32(rng.Intn(12))}
					restoreT := now - 3 + uint32(rng.Intn(12))
					mutate(rng.Intn(3) == 0, func(segs []reservation.ID) { cp.RestoreEERPath(id, segs, bw/2, restoreT, ver, held) })
				case 9:
					op = "teardown"
					mutate(rng.Intn(3) == 0, func(segs []reservation.ID) { cp.TeardownEERPath(id, segs) })
				case 10:
					op = "teardown first"
					mutate(true, func(segs []reservation.ID) { cp.TeardownEERPath(id, segs) })
				case 11:
					op = "drop SegR"
					if rng.Intn(4) == 0 {
						s := segs[rng.Intn(nSeg)]
						cp.DropSegR(s.ID)
						if _, err := cp.AddSegR(s); err != nil {
							t.Fatal(err)
						}
					}
				case 12:
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
				case 13:
					op = "tick"
					if lapsedHeld(cp, now) > 0 {
						seen["tick drops a held piece"]++
					}
					cp.Tick()
					if n := lapsedHeld(cp, now); n > 0 {
						t.Fatalf("step %d: %d lapsed held pieces left after Tick", step, n)
					}
				case 14:
					op = "clock"
					clk.step(uint32(1 + rng.Intn(6)))
				case 15:
					// §4.2: the version renewed downward stays valid until it
					// expires, so the EER's own charges carry its bandwidth until
					// then (or until the new version expires, with which the
					// held piece goes), and the new one's after.
					op = "renew down"
					bw0, _, exp0, ok := cp.LookupEER(id, g[0])
					if !ok || exp0 <= now || bw0 < 2 {
						break
					}
					got, err := cp.RenewEERPath(id, g, 1+uint64(rng.Int63n(int64(bw0-1))), expT, ver)
					note(op, err)
					if err != nil || got >= bw0 {
						break
					}
					until := min(exp0, expT)
					for _, at := range []uint32{now, until - 1} {
						if c := chargeOf(cp, id, g[0], at); c < bw0 {
							t.Fatalf("step %d: renewed %d → %d kbps, charged %d at %d, before the old version's expiry %d",
								step, bw0, got, c, at, until)
						}
					}
					if after := (exp0 + cp.epochSec - 1) / cp.epochSec * cp.epochSec; after < expT {
						if c := chargeOf(cp, id, g[0], after); c != got {
							t.Fatalf("step %d: renewed %d → %d kbps, charged %d at %d, after the old version's expiry %d",
								step, bw0, got, c, after, exp0)
						}
					}
				}
				auditBooks(t, cp, clk.now(), fmt.Sprintf("step %d (%s)", step, op))
			}
			for _, want := range []string{"setup ok", "setup insufficient", "renew ok",
				"renew insufficient", "renew window", "renew first ok", "renew first " + ErrTransferEER.Error(),
				"renew down ok", "tick drops a held piece"} {
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
	for _, op := range []string{"adjust", "restore", "teardown", "teardown first"} {
		if partial[op] == 0 {
			t.Errorf("no %s named only the first SegR of a live pair record: %v", op, partial)
		}
	}
}

// TestDischargeOnlyWhereCharged: a keyless ledger cannot tell a charge it never
// had from one it has, so a transfer-AS record torn down under another covering
// set than it was admitted under is left alone — discharging only the ledgers
// both sets name would strand its charge on the other. Under its own set it
// goes, with both charges.
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
	demands := func(step string, want [3]uint64) {
		t.Helper()
		for i, seg := range ids {
			if got, _ := cp.SegDemandMax(seg); got != want[i] {
				t.Errorf("%s: demand on %s = %d, want %d", step, seg, got, want[i])
			}
		}
	}
	for _, other := range [][]reservation.ID{{a, c}, {a}} {
		cp.TeardownEERPath(eid(1), other)
		demands(fmt.Sprintf("teardown over %v", other), [3]uint64{4_000, 4_000, 0})
	}
	cp.TeardownEERPath(eid(1), []reservation.ID{a, b})
	demands("teardown over its own set", [3]uint64{})
	if n := cp.Counts().EERs; n != 0 {
		t.Errorf("%d records left after the teardown", n)
	}
}

// handleOf returns the handle SegR id holds.
func handleOf(t *testing.T, cp *CPlane, id reservation.ID) segH {
	t.Helper()
	sh := cp.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.segs[id]
	if r == nil {
		t.Fatalf("SegR %s is unknown", id)
	}
	return r.h
}

// TestHandleRecyclingCannotAliasADroppedSegR: a SegR's handle is reused once
// the SegR has gone, and only once no record names it. For each way a SegR
// goes — DropSegR, TeardownSegR of one whose EERs lapsed without a Tick,
// AbortSegR under a live EER — an EER admitted over it alone and one paired
// with a SegR of another shard go with it, and the next AddSegR in its shard
// takes its handle. A renewal of either EER over the new SegR then finds no
// record, and Tick, up to and past the old EERs' expiry, leaves the new SegR's
// ledger carrying exactly the EER admitted over it.
func TestHandleRecyclingCannotAliasADroppedSegR(t *testing.T) {
	for _, how := range []string{"drop", "teardown", "abort"} {
		t.Run(how, func(t *testing.T) {
			clk := newCPClock(1000)
			cp := newTestCPlane(t, 4, clk)
			var expired [][2]reservation.ID
			cp.OnExpire(func(seg, seg2 reservation.ID, bw uint64) { expired = append(expired, [2]reservation.ID{seg, seg2}) })
			old, other, fresh := segReq(1, 50, 1, 2, 10_000), segReq(2, 50, 1, 2, 10_000), segReq(3, 50, 1, 2, 10_000)
			for cp.shardIndex(other.ID) == cp.shardIndex(old.ID) {
				other.ID.Num += 3
			}
			for cp.shardIndex(fresh.ID) != cp.shardIndex(old.ID) {
				fresh.ID.Num += 3
			}
			for _, req := range []admission.Request{old, other} {
				if _, err := cp.AddSegR(req); err != nil {
					t.Fatal(err)
				}
			}
			h := handleOf(t, cp, old.ID)
			solo, pair := eid(1), eid(2)
			expT := clk.now() + 16
			if err := cp.SetupEERPath(solo, []reservation.ID{old.ID}, 3_000, expT, 1); err != nil {
				t.Fatal(err)
			}
			if err := cp.SetupEERPath(pair, []reservation.ID{old.ID, other.ID}, 2_000, expT, 1); err != nil {
				t.Fatal(err)
			}
			switch how {
			case "drop":
				cp.DropSegR(old.ID)
			case "teardown":
				clk.step(20)
				if err := cp.TeardownSegR(old.ID); err != nil {
					t.Fatal(err)
				}
			case "abort":
				cp.AbortSegR(old.ID)
			}
			if n := cp.Counts().EERs; n != 0 {
				t.Fatalf("%d records outlive their SegR", n)
			}
			if len(expired) != 1 || expired[0] != [2]reservation.ID{old.ID, other.ID} {
				t.Fatalf("expiry callback saw %v, want the pair over %s and %s", expired, old.ID, other.ID)
			}
			if got, _ := cp.SegDemandMax(other.ID); got != 0 {
				t.Fatalf("%s still carries %d kbps of the pair", other.ID, got)
			}
			if _, err := cp.AddSegR(fresh); err != nil {
				t.Fatal(err)
			}
			if got := handleOf(t, cp, fresh.ID); got != h {
				t.Fatalf("the new SegR took handle %#x, the old one had %#x: nothing was recycled", got, h)
			}
			now := clk.now()
			if _, err := cp.RenewEERPath(solo, []reservation.ID{fresh.ID}, 1_000, now+16, 2); !errors.Is(err, ErrUnknownEER) {
				t.Fatalf("renewal of the old EER over the new SegR: %v, want ErrUnknownEER", err)
			}
			if _, err := cp.RenewEERPath(pair, []reservation.ID{fresh.ID, other.ID}, 1_000, now+16, 2); !errors.Is(err, ErrUnknownEER) {
				t.Fatalf("renewal of the old pair over the new SegR: %v, want ErrUnknownEER", err)
			}
			for _, seg := range []reservation.ID{old.ID, fresh.ID} {
				if _, _, _, ok := cp.LookupEER(solo, seg); ok {
					t.Fatalf("LookupEER finds the old EER under %s", seg)
				}
			}
			if err := cp.SetupEERPath(eid(3), []reservation.ID{fresh.ID}, 4_000, now+30, 1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if n := cp.Tick(); n != 0 {
					t.Fatalf("Tick %d removed %d records", i, n)
				}
				auditBooks(t, cp, clk.now(), fmt.Sprintf("tick %d", i))
				if got, _ := cp.SegDemandMax(fresh.ID); got != 4_000 {
					t.Fatalf("tick %d: the new SegR carries %d kbps, want 4000", i, got)
				}
				clk.step(6)
			}
		})
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
// setup whose window reaches ahead past the ledger's ring is refused, and
// leaves no phantom demand at the present; and asking about a window ahead
// moves nothing.
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
	if err := cp.SetupEER(eid(1), seg.ID, 7, 1036); !errors.Is(err, restree.ErrWindow) {
		t.Fatalf("setup past the ring: err = %v, want ErrWindow", err)
	}
	if got := cp.SegAvail(seg.ID, 1000, 1004); got != 10_000 {
		t.Errorf("SegAvail now = %d, want the whole grant (no phantom of the refused setup)", got)
	}
	if err := cp.SetupEER(eid(1), seg.ID, 7, 1032); err != nil {
		t.Errorf("setup ending with the ring: err = %v, want nil", err)
	}
	if got := cp.SegAvail(seg.ID, 1028, 1032); got != 10_000-7 {
		t.Errorf("SegAvail at the ring's end = %d, want %d", got, 10_000-7)
	}
	// Asking about a window ahead moved nothing: a charge of the present is
	// still there afterwards.
	if err := cp.SetupEER(eid(2), seg.ID, 100, 1016); err != nil {
		t.Fatal(err)
	}
	cp.SegAvail(seg.ID, 1028, 1032)
	if got := cp.SegAvail(seg.ID, 1000, 1004); got != 10_000-107 {
		t.Errorf("SegAvail now, after a query about a later window = %d, want %d", got, 10_000-107)
	}
}

// TestOneProbeRefusalsLeaveNothing pins the two refusals of a setup's one-probe
// insertion (eerPath.admit), which adds the record before the ledgers are asked
// and deletes it when they refuse. A setup over capacity at a hop deep in the
// path, at the transfer AS into the narrow down-SegR, is refused there; a setup
// whose ID already has a record under another SegR is ErrExists. After each,
// every hop holds what it did before — records, held pieces, ledgers and
// transfer-split books — and its engine counters moved as a refusal that never
// inserted moves them: the refusing hop tallies one capacity refusal or one
// dedup, a hop before it one admission it rolled back, a hop after it nothing.
func TestOneProbeRefusalsLeaveNothing(t *testing.T) {
	f := cpFabric(t, 1, highRate)
	up, err := f.services[ia(1, 11)].SetupSegment(f.reg.UpSegments(ia(1, 11))[0], 0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	core, err := f.services[ia(1, 1)].SetupSegment(f.reg.CoreSegments(ia(1, 1), ia(2, 1))[0], 0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	down, err := f.services[ia(2, 1)].SetupSegment(f.reg.DownSegments(ia(2, 11))[0], 0, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	src := f.services[ia(1, 11)]
	g, err := src.RequestEER(1, 2, ia(2, 11), 500)
	if err != nil {
		t.Fatal(err)
	}
	deep := int(g.Splits[len(g.Splits)-1]) // the first hop the down-SegR covers
	if deep < 2 {
		t.Fatalf("the down-SegR starts at hop %d of %v", deep, g.PathHops)
	}
	snapshot := func() []hopBooks {
		bs := make([]hopBooks, len(g.PathHops))
		for h, ph := range g.PathHops {
			bs[h] = booksOf(f.services[ph.IA], up.ID, core.ID)
		}
		return bs
	}
	expect := func(step string, want []hopBooks) {
		t.Helper()
		for h, b := range snapshot() {
			if d := want[h].diff(b); d != "" {
				t.Fatalf("%s: hop %d (%s): want vs got %s", step, h, g.PathHops[h].IA, d)
			}
			auditBooks(t, f.services[g.PathHops[h].IA].cp, f.now(), step)
		}
	}

	want := snapshot()
	_, err = src.RequestEER(3, 4, ia(2, 11), 2_000)
	if !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), fmt.Sprintf("at hop %d", deep)) {
		t.Fatalf("over-capacity setup: %v, want a refusal at hop %d", err, deep)
	}
	for h := range want {
		switch {
		case h < deep:
			want[h].counts.Admits++
		case h == deep:
			want[h].counts.Rejects++
		}
	}
	expect("over capacity at a deep hop", want)

	// At the transfer AS g's record lives under the core-SegR, its primary
	// cover; a setup of the same ID under the down-SegR alone finds it.
	s := f.services[g.PathHops[deep].IA]
	want = snapshot()
	if err := s.cp.SetupEERPath(g.ID, []reservation.ID{down.ID}, 100, f.now()+16, 1); !errors.Is(err, restree.ErrExists) {
		t.Fatalf("setup of %s under another SegR: %v, want ErrExists", g.ID, err)
	}
	want[deep].counts.Dedups++
	expect("ID recorded under another SegR", want)

	if _, err := src.RequestEER(5, 6, ia(2, 11), 500); err != nil {
		t.Fatalf("setup into the capacity the refusals left: %v", err)
	}
}
