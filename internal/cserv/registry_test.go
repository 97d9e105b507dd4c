// registry_test.go — the CPlane as the AS's one SegR registry: IDs, the
// versions of §4.2 and their housekeeping, copies out, the initiator's state.
package cserv

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"colibri/internal/reservation"
	"colibri/internal/segment"
)

// setupTestSegR sets SegR num up on cp as the setup handler does, with active
// version 1 of 1 000 kbps until expT.
func setupTestSegR(t *testing.T, cp *CPlane, num uint32, segType segment.Type, expT uint32) reservation.ID {
	t.Helper()
	req := segReq(num, 50, 1, 2, 1_000)
	req.MinKbps = 10
	if _, err := cp.setupSegR(req, segType, reservation.Version{Ver: 1, ExpT: expT}); err != nil {
		t.Fatal(err)
	}
	return req.ID
}

// TestNextIDUnique: the IDs a service hands out, from several goroutines at
// once, are its own and never repeat.
func TestNextIDUnique(t *testing.T) {
	clk := newCPClock(1000)
	s := New(Config{AS: cplaneAS(t, 2, 1_000), Clock: clk.now})
	var mu sync.Mutex
	seen := make(map[reservation.ID]bool)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				id := s.nextID()
				mu.Lock()
				if seen[id] || id.SrcAS != s.IA() {
					t.Errorf("ID %s: seen before %v, source AS %s", id, seen[id], s.IA())
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// TestSegRLifecycle: a setup's record holds the request's interfaces, minimum
// and version at its grant, refuses a second setup of its ID, takes the final
// grant, hands out copies only, and is gone once dropped.
func TestSegRLifecycle(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 4, clk)
	id := setupTestSegR(t, cp, 1, segment.Core, clk.now()+reservation.SegRLifetimeSeconds)
	if _, err := cp.setupSegR(segReq(1, 50, 1, 2, 1_000), segment.Core, reservation.Version{Ver: 1}); !errors.Is(err, ErrSegRExists) {
		t.Errorf("duplicate setup: %v", err)
	}
	got, err := cp.GetSegR(id)
	if err != nil || got.ID != id || got.SegType != segment.Core || got.In != 1 || got.Eg != 2 || got.MinKbps != 10 ||
		got.Active != (reservation.Version{Ver: 1, BwKbps: 1_000, ExpT: clk.now() + reservation.SegRLifetimeSeconds}) || got.Pending != nil {
		t.Fatalf("GetSegR: %v, %+v", err, got)
	}
	got.Active.BwKbps = 5
	if again, _ := cp.GetSegR(id); again.Active.BwKbps != 1_000 {
		t.Errorf("writing a copy reached the record: %d kbps", again.Active.BwKbps)
	}
	if err := cp.confirmSegR(id, 800, true, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ = cp.GetSegR(id); got.Active.BwKbps != 800 {
		t.Errorf("confirmed bw = %d", got.Active.BwKbps)
	}
	if avail := cp.SegAvail(id, clk.now(), clk.now()+16); avail != 800 {
		t.Errorf("EERs may take %d kbps of a SegR confirmed at 800", avail)
	}
	cp.DropSegR(id)
	if _, err := cp.GetSegR(id); !errors.Is(err, ErrUnknownSegR) {
		t.Errorf("after the drop: %v", err)
	}
	if err := cp.confirmSegR(id, 1, true, nil); !errors.Is(err, ErrUnknownSegR) {
		t.Errorf("confirm missing: %v", err)
	}
}

// TestPendingActivation: a renewal's version waits as pending until it is
// activated or cleared; activating none is an error.
func TestPendingActivation(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 4, clk)
	id := setupTestSegR(t, cp, 1, segment.Up, clk.now()+reservation.SegRLifetimeSeconds)
	if _, err := cp.activateSegR(id); !errors.Is(err, ErrNoPending) {
		t.Errorf("activate without pending: %v", err)
	}
	v := reservation.Version{Ver: 2, BwKbps: 600, ExpT: clk.now() + 600}
	if err := cp.confirmSegR(id, 600, false, &v); err != nil {
		t.Fatal(err)
	}
	if r, _ := cp.GetSegR(id); r.Active.Ver != 1 || r.Pending == nil || *r.Pending != v {
		t.Fatalf("after the renewal: %+v", r)
	}
	if err := cp.clearPending(id); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.activateSegR(id); !errors.Is(err, ErrNoPending) {
		t.Errorf("activate a cleared pending version: %v", err)
	}
	if err := cp.confirmSegR(id, 600, false, &v); err != nil {
		t.Fatal(err)
	}
	if active, err := cp.activateSegR(id); err != nil || active != v {
		t.Fatalf("activate: %+v, %v", active, err)
	}
	if r, _ := cp.GetSegR(id); r.Active != v || r.Pending != nil {
		t.Errorf("after activation: %+v", r)
	}
}

// TestCleanupSegRs: Tick drops, in ID order, the SegRs whose active and pending
// versions have both expired, switches one whose active version has expired
// to its live pending one, and keeps the live — and those AddSegR admitted,
// which never lapse.
func TestCleanupSegRs(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 4, clk)
	now := clk.now()
	// Expired active, no pending → dropped; three of them, added out of order.
	lapsed := []reservation.ID{
		setupTestSegR(t, cp, 9, segment.Up, now+5),
		setupTestSegR(t, cp, 1, segment.Up, now+5),
		setupTestSegR(t, cp, 4, segment.Up, now+5),
	}
	// Expired active with live pending → failover to pending.
	failover := setupTestSegR(t, cp, 2, segment.Up, now+5)
	v := reservation.Version{Ver: 2, BwKbps: 150, ExpT: now + 100}
	if err := cp.confirmSegR(failover, 150, false, &v); err != nil {
		t.Fatal(err)
	}
	// Expired active with expired pending → dropped.
	both := setupTestSegR(t, cp, 5, segment.Up, now+5)
	if err := cp.confirmSegR(both, 150, false, &reservation.Version{Ver: 2, BwKbps: 150, ExpT: now + 6}); err != nil {
		t.Fatal(err)
	}
	// Live active → kept, as is a SegR AddSegR admitted.
	live := setupTestSegR(t, cp, 3, segment.Up, now+100)
	engine := segReq(7, 60, 1, 2, 1_000)
	if _, err := cp.AddSegR(engine); err != nil {
		t.Fatal(err)
	}

	clk.step(10)
	_, dropped := cp.tick()
	want := append(slices.Clone(lapsed), both)
	slices.SortFunc(want, func(a, b reservation.ID) int {
		if a.Less(b) {
			return -1
		}
		return 1
	})
	if !slices.Equal(dropped, want) {
		t.Errorf("dropped %v, want %v", dropped, want)
	}
	got, err := cp.GetSegR(failover)
	if err != nil || got.Active != v || got.Pending != nil {
		t.Errorf("failover to pending did not happen: %+v, %v", got, err)
	}
	for _, id := range []reservation.ID{live, engine.ID} {
		if _, err := cp.GetSegR(id); err != nil {
			t.Errorf("live SegR %s removed: %v", id, err)
		}
	}
	if n := cp.Counts().SegRs; n != 3 {
		t.Errorf("%d SegRs left, want 3", n)
	}
}

// TestInitiatedSegRs: only the SegRs this AS initiated carry their segment and
// tokens, and they come out in ID order.
func TestInitiatedSegRs(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 4, clk)
	seg := &segment.Segment{Type: segment.Up, Hops: []segment.Hop{{IA: ia(1, 50)}}}
	var mine []reservation.ID
	for _, num := range []uint32{8, 3, 5} {
		id := setupTestSegR(t, cp, num, segment.Up, clk.now()+300)
		if _, err := cp.initiated(id, seg, nil); err != nil {
			t.Fatal(err)
		}
		mine = append(mine, id)
	}
	setupTestSegR(t, cp, 4, segment.Up, clk.now()+300) // transit view: no segment attached
	var got []reservation.ID
	for _, r := range cp.InitiatedSegRs() {
		if r.Seg != seg {
			t.Errorf("%s: segment %v", r.ID, r.Seg)
		}
		got = append(got, r.ID)
	}
	if want := []reservation.ID{mine[1], mine[2], mine[0]}; !slices.Equal(got, want) {
		t.Errorf("InitiatedSegRs = %v, want %v", got, want)
	}
}
