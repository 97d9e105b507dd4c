package core

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"

	"colibri/internal/router"
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

// TestDropAllocatesNothing pins the drop path's allocations: a forged, a
// stale and a replayed packet injected at the source AS each die at its
// border router without allocating, and the error they die with is both
// ErrDropped and the router's reason.
func TestDropAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	net, hs, hd := twoISDNet(t, Options{EnableReplaySuppression: true, EnableOFD: true})
	sess, err := hs.RequestEER(hd, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	now := net.Clock.NowNs()
	replayed := sess.Grant().Stamp([]byte("x"), now, false)
	if err := net.InjectPacket(slices.Clone(replayed), ia(1, 11)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		pkt    []byte
		reason error
	}{
		{"forged", sess.Grant().Stamp([]byte("x"), now, true), router.ErrBadHVF},
		{"stale", sess.Grant().Stamp([]byte("x"), now-2*router.DefaultFreshnessNs, false), router.ErrStale},
		{"replayed", replayed, router.ErrReplay},
	} {
		var err error
		inject := func() { err = net.InjectPacket(c.pkt, ia(1, 11)) }
		if a := testing.AllocsPerRun(100, inject); a != 0 {
			t.Errorf("%s: a drop allocates %.1f times", c.name, a)
		}
		if !errors.Is(err, ErrDropped) || !errors.Is(err, c.reason) {
			t.Errorf("%s: dropped with %v, want both %v and %v", c.name, err, ErrDropped, c.reason)
		}
	}
}

// TestSessionBytesPerEER pins what a maintained session costs the source AS
// beyond its EER's records at the CServ and the gateway: at most 66 live
// heap bytes — the Session and its keeper's columns in the node's fleet, the
// σs kept by the gateway alone — at each of eleven steps from 10 000 to 13 000
// sessions, whatever slack the columns have there. A session with a keeper
// of its own, which copied its grant and σs, cost about 360.
func TestSessionBytesPerEER(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const budget = 66
	var steps []int
	for n := 10_000; n <= 13_000; n += 300 {
		steps = append(steps, n)
	}
	last := steps[len(steps)-1]
	// grow measures the live heap per EER that EERs add to a fresh network at
	// each step: as sessions, kept and maintained, or as the CServ's and the
	// gateway's records alone.
	grow := func(sessions bool) []float64 {
		net, hs, hd := twoISDNet(t, Options{RateLimit: 1 << 30})
		node := net.Node(hs.IA)
		kept := make([]*Session, 0, last)
		per := make([]float64, 0, len(steps))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for n := 1; n <= last; n++ {
			if !sessions {
				g, err := node.CServ.RequestEER(hs.Addr, hd.Addr, hd.IA, 20)
				if err == nil {
					err = node.Gateway.Install(g.Res, g.EER, g.Path, g.HopAuths)
				}
				if err != nil {
					t.Fatal(err)
				}
			} else {
				s, err := hs.RequestEER(hd, 20)
				if err == nil {
					err = s.Maintain(4)
				}
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, s)
			}
			if n == steps[len(per)] {
				runtime.GC()
				runtime.ReadMemStats(&after)
				per = append(per, (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(n))
			}
		}
		runtime.KeepAlive(net)
		runtime.KeepAlive(kept)
		return per
	}
	// The least of three is each variant's own; the rest is other goroutines'
	// garbage.
	least := func(sessions bool) []float64 {
		a, b, c := grow(sessions), grow(sessions), grow(sessions)
		for i := range a {
			a[i] = min(a[i], b[i], c[i])
		}
		return a
	}
	records, sessions := least(false), least(true)
	worst, at := 0.0, 0
	for i, n := range steps {
		if per := sessions[i] - records[i]; per > worst {
			worst, at = per, n
		}
	}
	t.Logf("at most %.1f heap bytes per session beyond its records (%d sessions)", worst, at)
	if worst > budget {
		t.Fatalf("%d maintained sessions hold %.1f heap bytes each beyond their records, budget %d", at, worst, budget)
	}
}
