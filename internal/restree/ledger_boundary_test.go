package restree

import "testing"

// Regression tests for the ledger's conservative epoch discretization: a
// window [startT, expT) in seconds is charged over [floor(startT/E),
// ceil(expT/E)) in epochs. The policy layer's time-sliced models
// (Hummingbird slices, flyover generations) lean on two consequences:
//
//   - a window whose endpoints sit ON epoch boundaries is charged exactly,
//     with no widening — so back-to-back slices [t, t+L) and [t+L, t+2L)
//     concatenate seamlessly, never double-charging the handover epoch;
//   - a window whose endpoints sit OFF the boundaries is widened outward
//     (floor the start, ceil the end), so demand is over-counted but never
//     under-counted.
//
// Every case here is an off-by-one that once broken would silently turn
// "conservative" into "leaky".

// TestEpochBoundaryRounding pins EpochOf (floor) and the ceil used by
// window/MaxDemand via observable charges.
func TestEpochBoundaryRounding(t *testing.T) {
	l := NewLedger[int](16, 4)
	if got := l.EpochOf(7); got != 1 {
		t.Errorf("EpochOf(7) = %d, want 1 (floor)", got)
	}
	if got := l.EpochOf(8); got != 2 {
		t.Errorf("EpochOf(8) = %d, want 2 (exact boundary starts its own epoch)", got)
	}
	if got := l.epochCeil(8); got != 2 {
		t.Errorf("epochCeil(8) = %d, want 2 (exact boundary does NOT widen)", got)
	}
	if got := l.epochCeil(9); got != 3 {
		t.Errorf("epochCeil(9) = %d, want 3 (one second past widens a full epoch)", got)
	}
	if got := l.epochCeil(0); got != 0 {
		t.Errorf("epochCeil(0) = %d, want 0", got)
	}
}

// TestAlignedWindowIsExact: endpoints on epoch boundaries charge exactly
// [startT, expT) and nothing outside it.
func TestAlignedWindowIsExact(t *testing.T) {
	l := NewLedger[int](16, 4)
	if err := l.Reserve(1, 8, 16, 100); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		at   uint32
		want int64
	}{
		{7, 0}, {8, 100}, {11, 100}, {12, 100}, {15, 100}, {16, 0}, {19, 0},
	} {
		if got := l.DemandAt(tc.at); got != tc.want {
			t.Errorf("DemandAt(%d) = %d, want %d", tc.at, got, tc.want)
		}
	}
	if got := l.MaxDemand(0, 8); got != 0 {
		t.Errorf("MaxDemand before the window = %d, want 0", got)
	}
	if got := l.MaxDemand(16, 32); got != 0 {
		t.Errorf("MaxDemand after the window = %d, want 0", got)
	}
}

// TestUnalignedWindowWidensOutward: off-boundary endpoints are floored and
// ceiled, so the charge covers MORE seconds than requested — never fewer.
func TestUnalignedWindowWidensOutward(t *testing.T) {
	l := NewLedger[int](16, 4)
	if err := l.Reserve(1, 9, 15, 100); err != nil { // requested [9, 15)
		t.Fatal(err)
	}
	// Charged [8, 16): the widening covers the requested seconds plus the
	// partial epochs on both sides.
	for _, tc := range []struct {
		at   uint32
		want int64
	}{
		{7, 0}, {8, 100}, {9, 100}, {14, 100}, {15, 100}, {16, 0},
	} {
		if got := l.DemandAt(tc.at); got != tc.want {
			t.Errorf("DemandAt(%d) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

// TestSeamlessSliceConcatenation: back-to-back slices under different keys
// (the Hummingbird renewal shape: next slice anchored at the END of the
// current one) hand over on the boundary with no double-charged epoch.
func TestSeamlessSliceConcatenation(t *testing.T) {
	l := NewLedger[int](32, 4)
	if err := l.Reserve(1, 8, 16, 100); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(2, 16, 24, 100); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(3, 24, 32, 100); err != nil {
		t.Fatal(err)
	}
	if got := l.MaxDemand(8, 32); got != 100 {
		t.Errorf("MaxDemand over three seamless slices = %d, want 100 (no handover double-charge)", got)
	}
	if got := l.DemandAt(16); got != 100 {
		t.Errorf("DemandAt(handover 16) = %d, want 100", got)
	}
	if got := l.DemandAt(24); got != 100 {
		t.Errorf("DemandAt(handover 24) = %d, want 100", got)
	}
}

// TestOverlappingSlicesDoubleChargeTheSharedEpoch: slices that miss the
// boundary by one second DO stack on the shared epoch — that over-count is
// the conservative behavior (and the flyover early-renewal cost).
func TestOverlappingSlicesDoubleChargeTheSharedEpoch(t *testing.T) {
	l := NewLedger[int](32, 4)
	if err := l.Reserve(1, 8, 16, 100); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(2, 15, 23, 100); err != nil { // one second early
		t.Fatal(err)
	}
	if got := l.DemandAt(15); got != 200 {
		t.Errorf("DemandAt(15) = %d, want 200 (epoch [12,16) charged by both)", got)
	}
	if got := l.DemandAt(12); got != 200 {
		t.Errorf("DemandAt(12) = %d, want 200 (floor widening reaches back to 12)", got)
	}
	if got := l.DemandAt(16); got != 100 {
		t.Errorf("DemandAt(16) = %d, want 100 (only the second slice)", got)
	}
}

// TestWidthOneWindows: the narrowest windows, aligned and not.
func TestWidthOneWindows(t *testing.T) {
	l := NewLedger[int](16, 4)
	// Sub-epoch window [9, 10) still charges its whole epoch [8, 12).
	if err := l.Reserve(1, 9, 10, 50); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		at   uint32
		want int64
	}{
		{7, 0}, {8, 50}, {11, 50}, {12, 0},
	} {
		if got := l.DemandAt(tc.at); got != tc.want {
			t.Errorf("DemandAt(%d) = %d, want %d", tc.at, got, tc.want)
		}
	}
	// A one-epoch aligned window right after it: no overlap.
	if err := l.Reserve(2, 12, 16, 50); err != nil {
		t.Fatal(err)
	}
	if got := l.MaxDemand(8, 16); got != 50 {
		t.Errorf("MaxDemand(8,16) = %d, want 50", got)
	}
}

// TestEmptyAndOversizedWindows: degenerate windows are refused, and the
// horizon check counts widened epochs, not seconds.
func TestEmptyAndOversizedWindows(t *testing.T) {
	l := NewLedger[int](8, 4) // horizon: 8 epochs = 32 s
	if err := l.Reserve(1, 8, 8, 10); err != ErrWindow {
		t.Errorf("empty window err = %v, want ErrWindow", err)
	}
	if err := l.Reserve(1, 9, 8, 10); err != ErrWindow {
		t.Errorf("inverted window err = %v, want ErrWindow", err)
	}
	// [8, 9) is sub-second-count but non-empty after widening: allowed.
	if err := l.Reserve(1, 8, 9, 10); err != nil {
		t.Errorf("[8,9) err = %v, want nil (widens to one epoch)", err)
	}
	l.Teardown(1)
	// Exactly the horizon: allowed.
	if err := l.Reserve(2, 0, 32, 10); err != nil {
		t.Errorf("horizon-wide window err = %v, want nil", err)
	}
	l.Teardown(2)
	// One second past the horizon: the ceil widens to 9 epochs — refused.
	if err := l.Reserve(3, 0, 33, 10); err != ErrWindow {
		t.Errorf("horizon+1s err = %v, want ErrWindow (ceil widening counts)", err)
	}
	// Unaligned start claws back a whole epoch: [3, 33) is 30 s of request
	// but floor(3)..ceil(33) = 9 epochs — refused.
	if err := l.Reserve(3, 3, 33, 10); err != ErrWindow {
		t.Errorf("unaligned horizon err = %v, want ErrWindow (floor widening counts)", err)
	}
}

// TestAdvanceAtTheBoundary: an entry charged over [start, end) epochs is
// released exactly when the clock's epoch reaches `end` — not an epoch
// early, not an epoch late.
func TestAdvanceAtTheBoundary(t *testing.T) {
	l := NewLedger[int](16, 4)
	if err := l.Reserve(1, 8, 16, 100); err != nil {
		t.Fatal(err)
	}
	if n := l.Advance(15); n != 0 {
		t.Errorf("Advance(15) released %d, want 0 (final epoch [12,16) still running)", n)
	}
	if got := l.DemandAt(15); got != 100 {
		t.Errorf("DemandAt(15) after early Advance = %d, want 100", got)
	}
	if n := l.Advance(16); n != 1 {
		t.Errorf("Advance(16) released %d, want 1 (epoch 4 reached the entry's end)", n)
	}
	if got := l.MaxDemand(8, 32); got != 0 {
		t.Errorf("MaxDemand after release = %d, want 0", got)
	}
	if err := l.Renew(1, 16, 24, 100); err != ErrUnknown {
		t.Errorf("Renew after release err = %v, want ErrUnknown", err)
	}
	// Unaligned expiry: [8, 17) is charged through epoch [16, 20), so the
	// entry survives Advance(19) and dies at Advance(20).
	if err := l.Reserve(2, 8, 17, 100); err != nil {
		t.Fatal(err)
	}
	if n := l.Advance(19); n != 0 {
		t.Errorf("Advance(19) released %d, want 0 (ceil-widened tail epoch)", n)
	}
	if n := l.Advance(20); n != 1 {
		t.Errorf("Advance(20) released %d, want 1", n)
	}
}

// TestRenewTruncatesAtTakeover: a renewal replaces the old charge in one
// step — where the versions would overlap, the epoch is charged once.
func TestRenewTruncatesAtTakeover(t *testing.T) {
	l := NewLedger[int](16, 4)
	if err := l.Reserve(1, 8, 16, 100); err != nil {
		t.Fatal(err)
	}
	if err := l.Renew(1, 12, 20, 100); err != nil {
		t.Fatal(err)
	}
	if got := l.DemandAt(12); got != 100 {
		t.Errorf("DemandAt(12) = %d, want 100 (old version fully replaced, not stacked)", got)
	}
	if got := l.DemandAt(8); got != 0 {
		t.Errorf("DemandAt(8) = %d, want 0 (pre-takeover charge withdrawn)", got)
	}
	if got := l.DemandAt(19); got != 100 {
		t.Errorf("DemandAt(19) = %d, want 100 (renewed tail)", got)
	}
}

// TestFutureWindowPastTheRingIsRefused: a window that starts in the future may
// be as short as it likes and still end past floor+horizon, where its slots are
// live ones seen again. Up to PR 18 the ledger checked only the window's
// length, admitted it, and reported its bandwidth as a phantom demand at the
// floor.
func TestFutureWindowPastTheRingIsRefused(t *testing.T) {
	l := NewLedger[int](8, 4) // ring: 8 epochs = 32 s
	l.Advance(1000)           // floor: epoch 250, ring [1000, 1032)
	if err := l.Reserve(1, 1032, 1036, 7); err != ErrWindow {
		t.Errorf("window past the ring: err = %v, want ErrWindow", err)
	}
	if got := l.MaxDemand(1000, 1004); got != 0 {
		t.Errorf("MaxDemand at the floor = %d, want 0 (no phantom of the refused window)", got)
	}
	// The last epoch of the ring is still inside it.
	if err := l.Reserve(2, 1028, 1032, 7); err != nil {
		t.Errorf("window ending with the ring: err = %v, want nil", err)
	}
	if got := l.DemandAt(1028); got != 7 {
		t.Errorf("DemandAt(1028) = %d, want 7", got)
	}
	if got := l.MaxDemand(1000, 1028); got != 0 {
		t.Errorf("MaxDemand ahead of the future window = %d, want 0", got)
	}
	// The ring moves with the floor: the refused window fits a second later.
	l.Advance(1004)
	if err := l.Reserve(1, 1032, 1036, 7); err != nil {
		t.Errorf("same window, floor one epoch on: err = %v, want nil", err)
	}
}

// The ring's horizon, on the CServ's ledger: 128 epochs of 4 s.
const ringN, ringSec = 128, 4

// TestChargeAtTheRingHorizon: with the floor at epoch f, a charge ending at
// epoch f+n is the last the ring holds — its final slot is the one just behind
// the floor's — and one ending at f+n+1 is refused, whatever its length. The
// whole ring at once fits exactly when it starts on the floor.
func TestChargeAtTheRingHorizon(t *testing.T) {
	p := NewProfile(ringN, ringSec)
	const floorT = 4000 // epoch 1000; slot 1000 mod 128 = 104, so windows wrap
	p.Advance(floorT)
	horizonT := uint32(floorT + ringN*ringSec)
	if err := p.Charge(horizonT-ringSec, horizonT, 5); err != nil {
		t.Fatalf("one epoch ending at floor+n: %v", err)
	}
	if err := p.Charge(horizonT, horizonT+ringSec, 5); err != ErrWindow {
		t.Fatalf("one epoch ending at floor+n+1: err = %v, want ErrWindow", err)
	}
	if err := p.Charge(horizonT-ringSec, horizonT+1, 5); err != ErrWindow {
		t.Fatalf("two epochs ending at floor+n+1: err = %v, want ErrWindow", err)
	}
	if err := p.Charge(floorT, horizonT, 3); err != nil {
		t.Fatalf("the whole ring from the floor: %v", err)
	}
	if err := p.Charge(floorT+1, horizonT+1, 3); err != ErrWindow {
		t.Fatalf("the whole ring a second on (n+1 epochs): err = %v, want ErrWindow", err)
	}
	if got := p.DemandAt(horizonT - 1); got != 8 {
		t.Errorf("demand in the ring's last epoch = %d, want 8", got)
	}
	if got := p.DemandAt(floorT); got != 3 {
		t.Errorf("demand at the floor = %d, want 3 (nothing of the last epoch folded onto it)", got)
	}
	if got := p.MaxDemand(floorT, horizonT+ringN*ringSec); got != 8 {
		t.Errorf("MaxDemand over the ring and past it = %d, want 8", got)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
}

// TestAdvanceAroundTheRing moves the floor by n−1, n and n+1 epochs over the
// same three charges — the whole ring, its first epoch and its last. One epoch
// short of the ring the slots are recycled one by one and the last epoch is
// still live; at n and beyond the ring is emptied at once and every charge has
// lapsed.
func TestAdvanceAroundTheRing(t *testing.T) {
	const floorT = 4000
	horizonT := uint32(floorT + ringN*ringSec)
	for _, tc := range []struct {
		epochs     uint32
		lapsed     int
		demandLeft int64 // at the new floor
	}{
		{ringN - 1, 1, 1 + 4},
		{ringN, 3, 0},
		{ringN + 1, 3, 0},
	} {
		p := NewProfile(ringN, ringSec)
		p.Advance(floorT)
		for _, c := range []struct {
			startT, expT uint32
			bw           int64
		}{{floorT, horizonT, 1}, {floorT, floorT + ringSec, 2}, {horizonT - ringSec, horizonT, 4}} {
			if err := p.Charge(c.startT, c.expT, c.bw); err != nil {
				t.Fatal(err)
			}
		}
		now := floorT + tc.epochs*ringSec
		if got := p.Advance(now); got != tc.lapsed {
			t.Errorf("Advance by %d epochs: %d lapsed, want %d", tc.epochs, got, tc.lapsed)
		}
		if got := p.Len(); got != 3-tc.lapsed {
			t.Errorf("Advance by %d epochs: Len = %d, want %d", tc.epochs, got, 3-tc.lapsed)
		}
		for e := uint32(0); e < ringN; e++ {
			want := int64(0)
			if e == 0 {
				want = tc.demandLeft
			}
			if got := p.DemandAt(now + e*ringSec); got != want {
				t.Fatalf("Advance by %d epochs: demand %d epochs past the floor = %d, want %d", tc.epochs, e, got, want)
			}
		}
		// The recycled slots take a full ring again.
		if err := p.Charge(now, now+ringN*ringSec, 9); err != nil {
			t.Errorf("Advance by %d epochs: the whole new ring: %v", tc.epochs, err)
		}
	}
}

// TestTimestampsAtTheWrap: within an epoch of 2³²−1 s, EpochOf and epochCeil
// do not wrap — the ceiling of the last second is an epoch past it, not 0 —
// and a charge ending on the last second is held, read and withdrawn like any
// other, DemandAt's one-second window [t, t+1) included, whose end does wrap.
// The charge's epochs take in the last second itself only when epochs are
// wider than a second: expT is exclusive, so at one-second epochs nothing can
// end after 2³²−1, and the charge lapses once the floor reaches it.
func TestTimestampsAtTheWrap(t *testing.T) {
	const last = ^uint32(0)
	for _, tc := range []struct {
		sec        uint32
		atLast     int64 // the demand in the last second
		lapsedLast int   // what Advance(2³²−1) lapses
	}{{1, 0, 1}, {ringSec, 7, 0}} {
		sec := tc.sec
		p := NewProfile(ringN, sec)
		if got, want := p.EpochOf(last), Epoch(last/sec); got != want {
			t.Errorf("sec %d: EpochOf(2³²−1) = %d, want %d", sec, got, want)
		}
		if got, want := p.epochCeil(last), Epoch((uint64(last)+uint64(sec)-1)/uint64(sec)); got != want || got <= p.EpochOf(last-sec) {
			t.Errorf("sec %d: epochCeil(2³²−1) = %d, want %d", sec, got, want)
		}
		p.Advance(last - 3*sec)
		if err := p.Charge(last-sec, last, 7); err != nil {
			t.Fatalf("sec %d: a charge ending on the last second: %v", sec, err)
		}
		if got := p.DemandAt(last - 1); got != 7 {
			t.Errorf("sec %d: DemandAt(2³²−2) = %d, want 7", sec, got)
		}
		if got := p.DemandAt(last); got != tc.atLast {
			t.Errorf("sec %d: DemandAt(2³²−1) = %d, want %d", sec, got, tc.atLast)
		}
		if got := p.MaxDemand(last-3*sec, last); got != 7 {
			t.Errorf("sec %d: MaxDemand up to 2³²−1 = %d, want 7", sec, got)
		}
		if got := p.DemandAt(last - 3*sec); got != 0 {
			t.Errorf("sec %d: demand at the floor = %d, want 0", sec, got)
		}
		p.Discharge(last-sec, last, 7)
		if got := p.MaxDemand(last-3*sec, last); got != 0 || p.Len() != 0 {
			t.Errorf("sec %d: after discharge: MaxDemand %d, Len %d, want 0, 0", sec, got, p.Len())
		}
		if err := p.Charge(last-sec, last, 7); err != nil {
			t.Fatal(err)
		}
		if got := p.Advance(last); got != tc.lapsedLast {
			t.Errorf("sec %d: Advance(2³²−1) lapsed %d, want %d", sec, got, tc.lapsedLast)
		}
		if got := p.DemandAt(last); got != tc.atLast {
			t.Errorf("sec %d: DemandAt(2³²−1) at the last floor = %d, want %d", sec, got, tc.atLast)
		}
	}
}
