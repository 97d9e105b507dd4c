package cserv

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"colibri/internal/admission"
	"colibri/internal/reservation"
	"colibri/internal/restree"
	"colibri/internal/topology"
)

// cplaneAS builds a transit AS with ifaces interfaces of linkKbps each,
// the shape every CPlane test admits against.
func cplaneAS(t testing.TB, ifaces int, linkKbps uint64) *topology.AS {
	t.Helper()
	topo := topology.New()
	center := ia(1, 1)
	topo.AddAS(center, true)
	for i := 1; i <= ifaces; i++ {
		n := ia(1, topology.ASID(100+i))
		topo.AddAS(n, true)
		topo.MustConnect(center, topology.IfID(i), n, 1, topology.LinkCore,
			topology.LinkSpec{CapacityKbps: linkKbps})
	}
	return topo.AS(center)
}

// cpClock is a virtual control-plane clock shared with a CPlane under test.
type cpClock struct{ t atomic.Uint32 }

func newCPClock(start uint32) *cpClock {
	c := &cpClock{}
	c.t.Store(start)
	return c
}
func (c *cpClock) now() uint32   { return c.t.Load() }
func (c *cpClock) step(d uint32) { c.t.Add(d) }

func newTestCPlane(t testing.TB, shards int, clk *cpClock) *CPlane {
	t.Helper()
	cp, err := NewCPlane(CPlaneConfig{
		AS:     cplaneAS(t, 4, 1_000_000),
		Split:  admission.DefaultSplit,
		Shards: shards,
		Clock:  clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func segReq(num uint32, src topology.ASID, in, eg topology.IfID, maxKbps uint64) admission.Request {
	return admission.Request{
		ID:      reservation.ID{SrcAS: ia(1, src), Num: num},
		Src:     ia(1, src),
		In:      in,
		Eg:      eg,
		MaxKbps: maxKbps,
	}
}

func eid(num uint32) reservation.ID { return reservation.ID{SrcAS: ia(2, 7), Num: num} }

func TestCPlaneLifecycle(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 1, clk)

	seg := segReq(1, 50, 1, 2, 10_000)
	grant, err := cp.AddSegR(seg)
	if err != nil || grant != 10_000 {
		t.Fatalf("AddSegR: grant=%d err=%v", grant, err)
	}

	if err := cp.SetupEER(eid(1), seg.ID, 6_000, clk.now()+16); err != nil {
		t.Fatalf("SetupEER: %v", err)
	}
	// Full-or-nothing: 5000 over the remaining 4000 must be refused whole.
	if err := cp.SetupEER(eid(2), seg.ID, 5_000, clk.now()+16); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("oversubscribed setup: err=%v, want ErrInsufficient", err)
	}
	if err := cp.SetupEER(eid(1), seg.ID, 1_000, clk.now()+16); !errors.Is(err, restree.ErrExists) {
		t.Fatalf("duplicate setup: err=%v, want restree.ErrExists", err)
	}
	if err := cp.SetupEER(eid(3), seg.ID, 4_000, clk.now()+16); err != nil {
		t.Fatalf("exact-fit setup: %v", err)
	}

	// Renewal shrinks to the free bandwidth: eid(1) asks to grow to 8000 but
	// only 6000 (its own) + 0 free is available → granted 6000.
	g, err := cp.RenewEER(eid(1), seg.ID, 8_000, clk.now()+16)
	if err != nil || g != 6_000 {
		t.Fatalf("RenewEER truncation: grant=%d err=%v", g, err)
	}

	if err := cp.TeardownSegR(seg.ID); !errors.Is(err, ErrSegRInUse) {
		t.Fatalf("TeardownSegR with live EERs: err=%v, want ErrSegRInUse", err)
	}
	cp.TeardownEERPath(eid(1), []reservation.ID{seg.ID})
	cp.TeardownEERPath(eid(3), []reservation.ID{seg.ID})
	if err := cp.TeardownSegR(seg.ID); err != nil {
		t.Fatalf("TeardownSegR after EER teardown: %v", err)
	}
	if err := cp.TeardownSegR(seg.ID); !errors.Is(err, ErrUnknownSegR) {
		t.Fatalf("double teardown: err=%v, want ErrUnknownSegR", err)
	}

	ct := cp.Counts()
	if ct.SegRs != 0 || ct.EERs != 0 {
		t.Fatalf("counts not drained: %+v", ct)
	}
	if ct.Rejects != 1 {
		t.Fatalf("rejects=%d, want 1 (oversubscribed setup only)", ct.Rejects)
	}
	if ct.Dedups != 1 {
		t.Fatalf("dedups=%d, want 1 (duplicate setup is an idempotent retry, not a refusal)", ct.Dedups)
	}
	if ct.Stale != 0 {
		t.Fatalf("stale=%d, want 0", ct.Stale)
	}
}

func TestCPlaneExpiryFreesBandwidth(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 1, clk)
	seg := segReq(1, 50, 1, 2, 10_000)
	if _, err := cp.AddSegR(seg); err != nil {
		t.Fatal(err)
	}
	if err := cp.SetupEER(eid(1), seg.ID, 10_000, clk.now()+16); err != nil {
		t.Fatal(err)
	}
	if err := cp.SetupEER(eid(2), seg.ID, 10_000, clk.now()+16); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("want ErrInsufficient while eid(1) holds all bandwidth, got %v", err)
	}
	// A setup whose window starts after eid(1)'s expiry epoch would still
	// collide inside the discretization slack; past the full lifetime it
	// must succeed without any Tick (lazy expiry on the ledger).
	clk.step(32)
	if err := cp.SetupEER(eid(2), seg.ID, 10_000, clk.now()+16); err != nil {
		t.Fatalf("setup after expiry: %v", err)
	}
	// Tick reaps the stale EER record.
	if n := cp.Tick(); n != 1 {
		t.Fatalf("Tick removed %d EERs, want 1", n)
	}
	if ct := cp.Counts(); ct.EERs != 1 {
		t.Fatalf("EERs=%d after Tick, want 1", ct.EERs)
	}
}

func TestCPlaneRenewalFallback(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 1, clk)
	seg := segReq(1, 50, 1, 2, 10_000)
	if _, err := cp.AddSegR(seg); err != nil {
		t.Fatal(err)
	}
	if err := cp.SetupEER(eid(1), seg.ID, 4_000, clk.now()+300); err != nil {
		t.Fatal(err)
	}
	if err := cp.SetupEER(eid(2), seg.ID, 6_000, clk.now()+16); err != nil {
		t.Fatal(err)
	}
	// eid(2) wants to grow to 8000, but only 6000 is free → granted 6000.
	if g, err := cp.RenewEER(eid(2), seg.ID, 8_000, clk.now()+16); err != nil || g != 6_000 {
		t.Fatalf("partial renewal: grant=%d err=%v", g, err)
	}
	// Fill the SegR completely, then a renewal that cannot get anything
	// must restore the old version rather than tearing the flow down.
	if g, err := cp.RenewEER(eid(1), seg.ID, 4_000, clk.now()+300); err != nil || g != 4_000 {
		t.Fatalf("refresh eid(1): grant=%d err=%v", g, err)
	}
	// Now shrink segBw by renewing the SegR down to 4000: eid(2)'s next
	// renewal finds zero free bandwidth (4000 grant − 4000 for eid(1)).
	r := seg
	r.MaxKbps = 4_000
	if _, err := cp.RenewSegR(r); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.RenewEER(eid(2), seg.ID, 6_000, clk.now()+16); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("zero-grant renewal: err=%v, want ErrInsufficient", err)
	}
	// The old version survived: it still blocks an equal-size setup.
	if err := cp.SetupEER(eid(3), seg.ID, 1, clk.now()+10); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("old version not restored: setup err=%v, want ErrInsufficient", err)
	}
}

// TestCPlaneShardDeterminism runs one op sequence against two independent
// engines and requires bit-identical grants, rejections and counts.
func TestCPlaneShardDeterminism(t *testing.T) {
	run := func() (grants []uint64, ct CPlaneCounts) {
		clk := newCPClock(1000)
		cp := newTestCPlane(t, 4, clk)
		var segs []reservation.ID
		rng := uint64(1)
		for i := uint32(0); i < 200; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			src := topology.ASID(10 + rng%37)
			req := segReq(i, src, topology.IfID(1+i%4), topology.IfID(1+(i+1)%4), 2_000+uint64(rng%1000))
			g, err := cp.AddSegR(req)
			if err != nil {
				grants = append(grants, 0)
				continue
			}
			grants = append(grants, g)
			segs = append(segs, req.ID)
			if err := cp.SetupEER(eid(i), req.ID, g/2, clk.now()+16); err == nil {
				grants = append(grants, g/2)
			}
			if i%17 == 0 {
				clk.step(5)
				cp.Tick()
			}
		}
		for i, id := range segs {
			g, _ := cp.RenewEER(eid(uint32(i)), id, 3_000, clk.now()+16)
			grants = append(grants, g)
		}
		return grants, cp.Counts()
	}
	g1, c1 := run()
	g2, c2 := run()
	if len(g1) != len(g2) {
		t.Fatalf("grant streams differ in length: %d vs %d", len(g1), len(g2))
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("grant %d differs: %d vs %d", i, g1[i], g2[i])
		}
	}
	if c1 != c2 {
		t.Fatalf("counts differ: %+v vs %+v", c1, c2)
	}
}

// TestCPlaneShardedCapacityConserved checks the capacity split: with K
// shards the total granted SegR bandwidth stays within the physical EER
// share of each egress link.
func TestCPlaneShardedCapacityConserved(t *testing.T) {
	const linkKbps = 100_000
	clk := newCPClock(1000)
	cp, err := NewCPlane(CPlaneConfig{
		AS:     cplaneAS(t, 2, linkKbps),
		Split:  admission.DefaultSplit,
		Shards: 4,
		Clock:  clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for i := uint32(0); i < 4000; i++ {
		g, err := cp.AddSegR(segReq(i, topology.ASID(10+i%50), 1, 2, 1_000))
		if err == nil {
			total += g
		}
	}
	cap := admission.DefaultSplit.EERShare(linkKbps)
	if total > cap {
		t.Fatalf("total granted %d kbps exceeds physical EER share %d kbps", total, cap)
	}
	if total == 0 {
		t.Fatal("nothing admitted")
	}
}

// TestCPlaneConcurrent exercises the engine from many goroutines; run under
// -race it validates the locking discipline and the atomic counters.
func TestCPlaneConcurrent(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 4, clk)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint32(w * 10_000)
			for i := uint32(0); i < 300; i++ {
				req := segReq(base+i, topology.ASID(10+uint64(w)), topology.IfID(1+i%4), topology.IfID(1+(i+1)%4), 500)
				if _, err := cp.AddSegR(req); err != nil {
					continue
				}
				eer := reservation.ID{SrcAS: ia(2, topology.ASID(1+uint64(w))), Num: i}
				if err := cp.SetupEER(eer, req.ID, 100, clk.now()+16); err == nil {
					if _, err := cp.RenewEER(eer, req.ID, 120, clk.now()+16); err != nil &&
						!errors.Is(err, ErrInsufficient) {
						t.Errorf("RenewEER: %v", err)
					}
					cp.TeardownEERPath(eer, []reservation.ID{req.ID})
				}
				if i%3 == 0 {
					if err := cp.TeardownSegR(req.ID); err != nil && !errors.Is(err, ErrSegRInUse) {
						t.Errorf("TeardownSegR: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	cp.Tick()
	ct := cp.Counts()
	if ct.SegRs < 0 || ct.EERs < 0 {
		t.Fatalf("negative counts: %+v", ct)
	}
}

// TestCPlaneRenewPathZeroAlloc pins the hot path: a full renewal wave, one
// RenewEERPath per EER and a third of them over two covering SegRs, must not
// allocate over a warmed-up engine.
func TestCPlaneRenewPathZeroAlloc(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 4, clk)
	cover := renewPopulation(t, cp, 64, 500, clk.now()+16)
	wave := func() {
		clk.step(4)
		for i, segs := range cover {
			if _, err := cp.RenewEERPath(eid(uint32(i)), segs, 500, clk.now()+16, 1); err != nil {
				t.Fatalf("renewal %d failed: %v", i, err)
			}
		}
	}
	for i := 0; i < 20; i++ { // warm up: heap slices, map buckets, ledgers
		wave()
	}
	if avg := testing.AllocsPerRun(50, wave); avg != 0 {
		t.Fatalf("a RenewEERPath wave allocates %.1f times, want 0", avg)
	}
}
