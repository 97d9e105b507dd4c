package core

import (
	"bytes"
	"testing"
)

// TestSendAllocatesNothing pins the packet journey's allocations: a
// 1000-byte Session.Send over TwoISD's 5-AS path — gateway, five border
// routers with replay suppression and overuse detection, delivery — with
// the receiver truncating its inbox every 64 packets allocates nothing.
func TestSendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	net, hs, hd := twoISDNet(t, Options{EnableReplaySuppression: true, EnableOFD: true})
	sess, err := hs.RequestEER(hd, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if sess.PathLen() != 5 {
		t.Fatalf("path of %d ASes, want 5", sess.PathLen())
	}
	payload := make([]byte, 1000)
	send := func() {
		// 1 ms apart: 8 Mbps, well under the reservation.
		net.Clock.Advance(1e6)
		payload[0]++
		if err := sess.Send(payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hd.Inbox[len(hd.Inbox)-1], payload) {
			t.Fatal("delivered payload differs")
		}
		if len(hd.Inbox) == 64 {
			hd.Inbox = hd.Inbox[:0]
		}
	}
	// Warm up past every growth: the inbox, the replay filters' rings and
	// stages, the gateway's and routers' scratch.
	for i := 0; i < 4000; i++ {
		send()
	}
	if a := testing.AllocsPerRun(2000, send); a != 0 {
		t.Errorf("Session.Send allocates %.3f times per packet", a)
	}
}
