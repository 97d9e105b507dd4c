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
