package core

import (
	"testing"

	"colibri/internal/reservation"
)

// TestLongLivedFlowAcrossRenewals runs a flow for several EER lifetimes:
// the host keep-alive and the operator's SegR auto-renewal together keep
// traffic flowing with zero interruption.
func TestLongLivedFlowAcrossRenewals(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	sess, err := hs.RequestEER(hd, 4_000)
	if err != nil {
		t.Fatal(err)
	}
	var renewals int
	// 90 virtual seconds ≈ 6 EER lifetimes, one send + housekeeping per
	// second.
	for sec := 0; sec < 90; sec++ {
		net.Clock.Advance(1e9)
		// Host keep-alive with a 5 s lead.
		did, err := sess.EnsureFresh(5)
		if err != nil {
			t.Fatalf("t=%ds keep-alive: %v", sec, err)
		}
		if did {
			renewals++
		}
		// Operators renew SegRs nearing expiry (60 s lead on 300 s terms).
		for _, ia := range net.Topo.SortedIAs() {
			if _, err := net.Node(ia).CServ.AutoRenew(60, nil); err != nil {
				t.Fatalf("t=%ds AutoRenew at %s: %v", sec, ia, err)
			}
		}
		net.Tick()
		if err := sess.Send([]byte("tick")); err != nil {
			t.Fatalf("t=%ds send: %v", sec, err)
		}
	}
	if hd.Received != 90 {
		t.Errorf("received %d of 90", hd.Received)
	}
	// ≈ one EER renewal per (16−5) s.
	if renewals < 6 || renewals > 10 {
		t.Errorf("keep-alive renewed %d times", renewals)
	}
}

// TestRenewThenMaintainKeepsRenewedVersion: a host's explicit renewal and its
// keep-alive serve one version. After Renew to 9000 kbps, Maintain keeps the
// renewed version — its bandwidth and its expiry — and the next due Maintain
// renews that version at that bandwidth, rather than going back to the one
// the keep-alive held before and asking again for the renewed version's
// number at the old bandwidth.
func TestRenewThenMaintainKeepsRenewedVersion(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	sess, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Maintain(4); err != nil {
		t.Fatal(err)
	}
	v1 := sess.Grant().Res
	net.Clock.Advance(1e9)
	if err := sess.Renew(9_000); err != nil {
		t.Fatal(err)
	}
	renewed := sess.Grant().Res
	if renewed.Ver != v1.Ver+1 || renewed.BwKbps != 9_000 {
		t.Fatalf("Renew(9000) gave version %d at %d kbps, want %d at 9000", renewed.Ver, renewed.BwKbps, v1.Ver+1)
	}
	net.Clock.Advance(1e9)
	if err := sess.Maintain(4); err != nil {
		t.Fatal(err)
	}
	if got := sess.Grant().Res; got != renewed || sess.BandwidthKbps() != 9_000 || sess.ExpiresAt() != renewed.ExpT {
		t.Fatalf("Maintain after Renew serves version %d at %d kbps until %d, want %d at 9000 until %d",
			got.Ver, sess.BandwidthKbps(), sess.ExpiresAt(), renewed.Ver, renewed.ExpT)
	}
	net.Clock.Advance(int64(renewed.ExpT-3-net.Clock.NowSec()) * 1e9)
	if err := sess.Maintain(4); err != nil {
		t.Fatal(err)
	}
	if got := sess.Grant().Res; got.Ver != renewed.Ver+1 || got.BwKbps != 9_000 {
		t.Fatalf("due Maintain renewed to version %d at %d kbps, want %d at 9000", got.Ver, got.BwKbps, renewed.Ver+1)
	}
	if err := sess.Send([]byte("x")); err != nil || hd.Received != 1 {
		t.Fatalf("send after the keep-alive: %v, received %d", err, hd.Received)
	}
}

// TestSegRAutoRenewKeepsVersionsMoving verifies the operator automation:
// after the lead window, SegRs get fresh versions network-wide and old EERs
// stay valid.
func TestSegRAutoRenewKeepsVersionsMoving(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	sess, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	segID := grantOf(sess).SegIDs[0]
	before, err := net.Node(ia(1, 11)).CServ.Store().GetSegR(segID)
	if err != nil {
		t.Fatal(err)
	}
	// The registry hands out copies, so these stay as they were.
	verBefore, expBefore := before.Active.Ver, before.Active.ExpT

	// Advance into the renewal window of the 300 s SegRs.
	net.Clock.Advance((reservation.SegRLifetimeSeconds - 30) * 1e9)
	var renewedTotal int
	for _, iaKey := range net.Topo.SortedIAs() {
		n, err := net.Node(iaKey).CServ.AutoRenew(60, nil)
		if err != nil {
			t.Fatalf("AutoRenew at %s: %v", iaKey, err)
		}
		renewedTotal += n
	}
	if renewedTotal == 0 {
		t.Fatal("nothing renewed inside the lead window")
	}
	after, err := net.Node(ia(1, 11)).CServ.Store().GetSegR(segID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Active.Ver <= verBefore {
		t.Errorf("version did not advance: %d → %d", verBefore, after.Active.Ver)
	}
	if after.Active.ExpT <= expBefore {
		t.Error("expiry did not advance")
	}
	// A freshly renewed EER over the renewed SegR carries traffic (the old
	// EER version expired long ago with its 16 s lifetime).
	net.Tick()
	if err := sess.Renew(8_000); err != nil {
		t.Fatal(err)
	}
	if err := sess.Send([]byte("still alive")); err != nil {
		t.Fatal(err)
	}
	if hd.Received != 1 {
		t.Errorf("received %d", hd.Received)
	}
}

// TestAutoRenewSkipsFreshAndPending ensures the automation is idempotent.
func TestAutoRenewSkipsFreshAndPending(t *testing.T) {
	net, _, _ := twoISDNet(t, Options{})
	src := net.Node(ia(1, 11)).CServ
	// Fresh SegRs are outside any reasonable lead: nothing to do.
	n, err := src.AutoRenew(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("renewed %d fresh SegRs", n)
	}
	// With a lead beyond the lifetime everything renews exactly once.
	n, err = src.AutoRenew(reservation.SegRLifetimeSeconds+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing renewed with full-lifetime lead")
	}
	// Immediately again: all versions are fresh now.
	n2, err := src.AutoRenew(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 {
		t.Errorf("second pass renewed %d", n2)
	}
}
