package restree

import (
	"errors"
	"testing"
)

func TestLedgerReserveRenewTeardown(t *testing.T) {
	l := NewLedger[uint64](64, 4)

	if err := l.Reserve(1, 100, 116, 500); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if err := l.Reserve(1, 100, 116, 500); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Reserve err = %v, want ErrExists", err)
	}
	if err := l.Renew(2, 100, 116, 10); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Renew unknown err = %v, want ErrUnknown", err)
	}
	if got := l.MaxDemand(100, 116); got != 500 {
		t.Fatalf("MaxDemand = %d, want 500", got)
	}
	if err := l.Reserve(2, 104, 120, 300); err != nil {
		t.Fatalf("Reserve 2: %v", err)
	}
	// Overlap [104,116) carries both.
	if got := l.MaxDemand(100, 120); got != 800 {
		t.Fatalf("MaxDemand overlap = %d, want 800", got)
	}
	// Renewal truncates: key 1 moves to [108, 124) at 400 — the old tail
	// [108,116) must not double-charge.
	if err := l.Renew(1, 108, 124, 400); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if got := l.MaxDemand(108, 120); got != 700 {
		t.Fatalf("MaxDemand after renew = %d, want 700 (400+300)", got)
	}
	if !l.Teardown(2) {
		t.Fatal("Teardown(2) = false, want true")
	}
	if l.Teardown(2) {
		t.Fatal("second Teardown(2) = true, want false")
	}
	if got := l.MaxDemand(100, 124); got != 400 {
		t.Fatalf("MaxDemand after teardown = %d, want 400", got)
	}
	if bw, ok := l.Get(1); !ok || bw != 400 {
		t.Fatalf("Get(1) = (%d,%v), want (400,true)", bw, ok)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestLedgerWindowValidation(t *testing.T) {
	l := NewLedger[int](16, 4)
	if err := l.Reserve(1, 100, 100, 5); !errors.Is(err, ErrWindow) {
		t.Fatalf("empty window err = %v, want ErrWindow", err)
	}
	if err := l.Reserve(1, 100, 100+16*4+1, 5); !errors.Is(err, ErrWindow) {
		t.Fatalf("over-horizon window err = %v, want ErrWindow", err)
	}
}

// TestLedgerAdvance checks expiry at exact epoch boundaries: a reservation
// over [startT, expT) with epoch width 4 is charged through the epoch
// containing expT-1 and released once now reaches ceil(expT/4)*4.
func TestLedgerAdvance(t *testing.T) {
	l := NewLedger[int](64, 4)
	if err := l.Reserve(1, 100, 114, 10); err != nil { // epochs [25, 29)
		t.Fatalf("Reserve: %v", err)
	}
	if err := l.Reserve(2, 100, 116, 20); err != nil { // epochs [25, 29)
		t.Fatalf("Reserve: %v", err)
	}
	if err := l.Reserve(3, 100, 130, 40); err != nil { // epochs [25, 33)
		t.Fatalf("Reserve: %v", err)
	}
	if n := l.Advance(115); n != 0 {
		t.Fatalf("Advance(115) released %d, want 0 (epoch 28 < end 29)", n)
	}
	// now=116 is epoch 29: both [25,29) reservations expire, in admission
	// order.
	if n := l.Advance(116); n != 2 {
		t.Fatalf("Advance(116) released %d, want 2", n)
	}
	if got := l.MaxDemand(116, 130); got != 40 {
		t.Fatalf("MaxDemand after advance = %d, want 40", got)
	}
	if n := l.Advance(132); n != 1 {
		t.Fatalf("Advance(132) released %d, want 1", n)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d, want 0", l.Len())
	}
}

// TestLedgerAdvanceSkipsStale: Advance must not release a renewed
// reservation at its old expiry.
func TestLedgerAdvanceSkipsStale(t *testing.T) {
	l := NewLedger[int](64, 1)
	if err := l.Reserve(1, 10, 20, 5); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if err := l.Renew(1, 15, 40, 5); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if n := l.Advance(25); n != 0 {
		t.Fatalf("Advance(25) released %d, want 0 (renewed to 40)", n)
	}
	if n := l.Advance(40); n != 1 {
		t.Fatalf("Advance(40) released %d, want 1", n)
	}
}

func TestLedgerSnapshot(t *testing.T) {
	l := NewLedger[int](16, 2)
	if err := l.Reserve(1, 4, 8, 9); err != nil { // epochs [2,4)
		t.Fatalf("Reserve: %v", err)
	}
	var got []int64
	l.Snapshot(2, 10, func(e Epoch, d int64) { got = append(got, d) })
	want := []int64{0, 9, 9, 0} // epochs 1..4
	if len(got) != len(want) {
		t.Fatalf("snapshot len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestLedgerZeroAllocSteadyState: a renew/advance churn loop at fixed
// population must not allocate.
func TestLedgerZeroAllocSteadyState(t *testing.T) {
	l := NewLedger[int](64, 1)
	now := uint32(100)
	for k := 0; k < 32; k++ {
		if err := l.Reserve(k, now, now+16, int64(10+k)); err != nil {
			t.Fatalf("Reserve: %v", err)
		}
	}
	// Warm up through a few full renewal waves.
	for w := 0; w < 4; w++ {
		now += 8
		l.Advance(now)
		for k := 0; k < 32; k++ {
			if err := l.Renew(k, now, now+16, int64(10+k)); err != nil {
				t.Fatalf("warmup Renew: %v", err)
			}
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		now += 8
		l.Advance(now)
		for k := 0; k < 32; k++ {
			if err := l.Renew(k, now, now+16, int64(10+k)); err != nil {
				t.Fatal("Renew failed")
			}
		}
		_ = l.MaxDemand(now, now+16)
	}); n != 0 {
		t.Fatalf("steady-state ledger churn allocates %.1f/run, want 0", n)
	}
}
