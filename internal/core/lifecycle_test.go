package core

import (
	"testing"

	"colibri/internal/cserv"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// tagCounter counts the control messages a CServ sends, by tag (the first
// byte of every request).
type tagCounter struct {
	inner cserv.Transport
	sent  *[256]int
}

func (c tagCounter) Call(dst topology.IA, msg []byte) ([]byte, error) {
	c.sent[msg[0]]++
	return c.inner.Call(dst, msg)
}

// TestNodeSessionsRenewInWaves: the node's fleet is the keep-alive. Three
// maintained sessions on one chain renew in one Network.Tick as one tag-7
// wave per hop past the source, with no solo tag-5 renewal, and keep
// delivering; a session nobody maintains is not renewed and expires.
func TestNodeSessionsRenewInWaves(t *testing.T) {
	const (
		tagEERenew      = 5
		tagEEBatchRenew = 7
	)
	var sent [256]int
	net, hs, hd := twoISDNet(t, Options{
		WrapTransport: func(_ topology.IA, inner cserv.Transport) cserv.Transport {
			return tagCounter{inner, &sent}
		},
	})
	var kept []*Session
	var vers []uint16
	for range 3 {
		s, err := hs.RequestEER(hd, 4_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Maintain(4); err != nil {
			t.Fatal(err)
		}
		kept = append(kept, s)
		vers = append(vers, s.Grant().Res.Ver)
	}
	unkept, err := hs.RequestEER(hd, 4_000)
	if err != nil {
		t.Fatal(err)
	}
	unkeptVer := unkept.Grant().Res.Ver
	for i, s := range kept {
		if grantOf(s).SegIDs[0] != grantOf(unkept).SegIDs[0] || s.PathLen() != unkept.PathLen() {
			t.Fatalf("session %d rides another chain", i)
		}
	}

	net.Clock.Advance(13e9) // inside the 4 s lead window of every session
	sent = [256]int{}
	if failed := net.Tick(); failed != 0 {
		t.Fatalf("%d renewals failed", failed)
	}
	if hops := unkept.PathLen() - 1; sent[tagEEBatchRenew] != hops || sent[tagEERenew] != 0 {
		t.Fatalf("one Tick sent %d waves and %d solo renewals, want %d waves (one per hop past the source) and none",
			sent[tagEEBatchRenew], sent[tagEERenew], hops)
	}
	for i, s := range kept {
		if got := s.Grant().Res.Ver; got != vers[i]+1 {
			t.Fatalf("maintained session %d: version %d after the Tick, want %d", i, got, vers[i]+1)
		}
	}
	if got := unkept.Grant().Res.Ver; got != unkeptVer {
		t.Fatalf("unmaintained session renewed: version %d → %d", unkeptVer, got)
	}

	// Past the first versions' expiry only the renewed sessions deliver.
	net.Clock.Advance(int64(unkept.ExpiresAt()+1-net.Clock.NowSec()) * 1e9)
	if failed := net.Tick(); failed != 0 {
		t.Fatalf("%d renewals failed", failed)
	}
	for i, s := range kept {
		if err := s.Send([]byte("kept")); err != nil {
			t.Fatalf("maintained session %d: %v", i, err)
		}
	}
	if hd.Received != len(kept) {
		t.Fatalf("received %d, want %d", hd.Received, len(kept))
	}
	if err := unkept.Send([]byte("expired")); err == nil {
		t.Fatal("unmaintained session still sends after its expiry")
	}
}

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
		// Host keep-alive with a 5 s lead; Network.Tick renews.
		if err := sess.Maintain(5); err != nil {
			t.Fatalf("t=%ds keep-alive: %v", sec, err)
		}
		// Operators renew SegRs nearing expiry (60 s lead on 300 s terms).
		for _, ia := range net.Topo.SortedIAs() {
			if _, err := net.Node(ia).CServ.AutoRenew(60, nil); err != nil {
				t.Fatalf("t=%ds AutoRenew at %s: %v", sec, ia, err)
			}
		}
		ver := sess.Grant().Res.Ver
		if failed := net.Tick(); failed != 0 {
			t.Fatalf("t=%ds: %d renewals failed", sec, failed)
		}
		if sess.Grant().Res.Ver != ver {
			renewals++
		}
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
// renewed version — its bandwidth and its expiry — and the Network.Tick after
// a due Maintain renews that version at that bandwidth, rather than going back to the one
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
	net.Tick()
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
