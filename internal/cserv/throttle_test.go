package cserv

import (
	"math/rand"
	"testing"

	"colibri/internal/reservation"
)

// stamp32 is the per-EER renewal throttle as a 32-bit second: the model the
// record's one-byte stamp is held to. last is the second of the last renewal
// let through, 0 before the first, and a renewal is refused in that second.
type stamp32 struct {
	live bool
	last uint32
}

// TestThrottleStampMatches32Bit runs the engine's throttle (eerPath.allowRenew
// on the record's one-byte stamp) beside stamp32 over seconds 0 to 1 100, and
// every allow or refuse decision must be the same. Scripted EERs renew,
// re-admit and set up at 255, 256, 511 and 512, twice a second; one is never
// renewed until a second ≡ 0 (mod 256) while it lives, one only at second 0;
// one is renewed again 256 s after its last stamp, long past its expT. Random
// EERs add renewals, teardowns (a renewal then re-admits) and restores of a
// live version (which keep the stamp) at random seconds, with gaps that leave
// records stale for hundreds of seconds.
func TestThrottleStampMatches32Bit(t *testing.T) {
	clk := newCPClock(0)
	cp := newTestCPlane(t, 1, clk)
	seg := segReq(1, 50, 1, 2, 1_000_000)
	if _, err := cp.AddSegR(seg); err != nil {
		t.Fatal(err)
	}
	segs := []reservation.ID{seg.ID}
	model := map[reservation.ID]*stamp32{}

	// renew is one renewal at now: the record's throttle, then the renewal or,
	// with no record, the re-admission, beside the model's decision.
	renew := func(id reservation.ID, now uint32) {
		m := model[id]
		var got bool
		cp.withPath(segs, func(p eerPath) {
			e := p.lookup(id)
			if e == nil {
				got = true
				if err := p.setup(id, 1, now+reservation.EERLifetimeSeconds, 1, true); err != nil {
					t.Fatalf("second %d: re-admission of %v: %v", now, id, err)
				}
				return
			}
			if got = p.allowRenew(e); got {
				if _, err := p.renew(id, e, 1, now+reservation.EERLifetimeSeconds, 1); err != nil {
					t.Fatalf("second %d: renewal of %v: %v", now, id, err)
				}
			}
		})
		want := !m.live || m.last != now
		if want {
			*m = stamp32{live: true, last: now}
		}
		if got != want {
			t.Fatalf("second %d: %v renewal let through %v, the 32-bit stamp %v", now, id, got, want)
		}
	}
	setup := func(id reservation.ID, now uint32) {
		if err := cp.SetupEERPath(id, segs, 1, now+reservation.EERLifetimeSeconds, 1); err != nil {
			t.Fatalf("second %d: setup of %v: %v", now, id, err)
		}
		*model[id] = stamp32{live: true}
	}
	teardown := func(id reservation.ID) {
		cp.withPath(segs, func(p eerPath) { p.teardown(id) })
		model[id].live = false
	}
	// restore puts a live version back, as a rollback does: a record that
	// stays keeps its stamp, one made afresh has none.
	restore := func(id reservation.ID, now uint32) {
		cp.withPath(segs, func(p eerPath) { p.restore(id, 1, now+5, 1, EERVersion{}) })
		if m := model[id]; !m.live {
			*m = stamp32{live: true}
		}
	}

	type event struct {
		at    uint32
		id    reservation.ID
		setup bool
		tear  bool
	}
	var script []event
	num := uint32(0)
	eer := func() reservation.ID {
		num++
		id := eid(num)
		model[id] = &stamp32{}
		return id
	}
	edges := []uint32{255, 256, 511, 512}
	// Renewals twice a second across each edge, of a record that renews every
	// second from before it.
	for _, edge := range edges {
		id := eer()
		script = append(script, event{at: edge - 3, id: id, setup: true})
		for s := edge - 2; s <= edge+2; s++ {
			script = append(script, event{at: s, id: id}, event{at: s, id: id})
		}
	}
	// Re-admissions at each edge: the record torn down the second before.
	for _, edge := range edges {
		id := eer()
		script = append(script, event{at: edge - 5, id: id, setup: true}, event{at: edge - 1, id: id, tear: true},
			event{at: edge, id: id}, event{at: edge, id: id}, event{at: edge + 1, id: id})
	}
	// Setups at each edge, renewed in the same second and the next.
	for _, edge := range edges {
		id := eer()
		script = append(script, event{at: edge, id: id, setup: true}, event{at: edge, id: id}, event{at: edge, id: id},
			event{at: edge + 1, id: id})
	}
	// Never renewed until a second ≡ 0 (mod 256) that it lives through.
	for _, at := range []uint32{250, 500, 1020} {
		id := eer()
		script = append(script, event{at: at, id: id, setup: true}, event{at: at + (256 - at%256), id: id},
			event{at: at + (256 - at%256), id: id})
	}
	// Set up at second 0 and renewed in it, then in the next.
	id0 := eer()
	script = append(script, event{at: 0, id: id0, setup: true}, event{at: 0, id: id0}, event{at: 0, id: id0},
		event{at: 1, id: id0})
	// Stamped at 5, stale from 21, renewed at 261: the stamp's byte reads 261.
	stale := eer()
	script = append(script, event{at: 3, id: stale, setup: true}, event{at: 5, id: stale},
		event{at: 261, id: stale}, event{at: 261, id: stale}, event{at: 517, id: stale})

	rng := rand.New(rand.NewSource(1))
	var random []reservation.ID
	for range 48 {
		random = append(random, eer())
	}
	const last = 1100
	for now := uint32(0); now <= last; now++ {
		clk.t.Store(now)
		for _, ev := range script {
			switch {
			case ev.at != now:
			case ev.setup:
				setup(ev.id, now)
			case ev.tear:
				teardown(ev.id)
			default:
				renew(ev.id, now)
			}
		}
		for _, id := range random {
			switch r := rng.Intn(100); {
			case !model[id].live && r < 3:
				setup(id, now)
			case r < 12:
				renew(id, now)
			case r < 15:
				renew(id, now)
				renew(id, now)
			case r == 15 && model[id].live:
				teardown(id)
			case r == 16:
				restore(id, now)
			}
		}
	}
}
