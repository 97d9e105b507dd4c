package admission

import (
	"errors"
	"math/rand"
	"testing"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

func ia(isd topology.ISD, as topology.ASID) topology.IA { return topology.MustIA(isd, as) }

// testAS builds an AS with n interfaces of linkKbps capacity each.
func testAS(t testing.TB, n int, linkKbps uint64) *topology.AS {
	t.Helper()
	topo := topology.New()
	center := topo.AddAS(ia(1, 1), true)
	for i := 1; i <= n; i++ {
		nb := ia(1, topology.ASID(i+1))
		topo.AddAS(nb, true)
		topo.MustConnect(ia(1, 1), topology.IfID(i), nb, 1, topology.LinkCore,
			topology.LinkSpec{CapacityKbps: linkKbps})
	}
	return center
}

func req(num uint32, src topology.IA, in, eg topology.IfID, min, max uint64) Request {
	return Request{
		ID:      reservation.ID{SrcAS: src, Num: num},
		Src:     src,
		In:      in,
		Eg:      eg,
		MinKbps: min,
		MaxKbps: max,
	}
}

func TestAdmitBasicGrant(t *testing.T) {
	st := NewState(testAS(t, 2, 100_000), DefaultSplit)
	// Sole request: gets its full demand (≤ 75% share of 100 Mbps).
	g, err := st.AdmitSegR(req(1, ia(1, 9), 1, 2, 1000, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if g != 10_000 {
		t.Errorf("grant = %d, want full demand 10000", g)
	}
	if st.AllocatedKbps(2) != 10_000 || st.GrantOf(reservation.ID{SrcAS: ia(1, 9), Num: 1}) != 10_000 {
		t.Error("accounting wrong after admit")
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d", st.Len())
	}
}

func TestAdmitErrors(t *testing.T) {
	st := NewState(testAS(t, 2, 100_000), DefaultSplit)
	if _, err := st.AdmitSegR(req(1, ia(1, 9), 1, 2, 0, 0)); !errors.Is(err, ErrZeroDemand) {
		t.Errorf("zero demand: %v", err)
	}
	if _, err := st.AdmitSegR(req(1, ia(1, 9), 7, 2, 0, 100)); !errors.Is(err, ErrUnknownIf) {
		t.Errorf("unknown ingress: %v", err)
	}
	if _, err := st.AdmitSegR(req(1, ia(1, 9), 1, 7, 0, 100)); !errors.Is(err, ErrUnknownIf) {
		t.Errorf("unknown egress: %v", err)
	}
	if _, err := st.AdmitSegR(req(1, ia(1, 9), 1, 2, 100, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AdmitSegR(req(1, ia(1, 9), 1, 2, 100, 100)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestAdmitRejectsBelowMinimum(t *testing.T) {
	st := NewState(testAS(t, 2, 100_000), DefaultSplit)
	// Fill the egress with 60 sources of 10 Mbps demand each (75 Mbps
	// reservable): later identical requests must receive shrinking shares.
	for i := uint32(0); i < 60; i++ {
		if _, err := st.AdmitSegR(req(i, ia(1, topology.ASID(100+i)), 1, 2, 0, 10_000)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// A newcomer demanding its full 10 Mbps as minimum cannot be satisfied.
	_, err := st.AdmitSegR(req(999, ia(1, 999), 1, 2, 10_000, 10_000))
	if !errors.Is(err, ErrBelowMinimum) {
		t.Errorf("want ErrBelowMinimum, got %v", err)
	}
	// The same demand with minimum 0 is admitted (possibly at zero grant)…
	g, err := st.AdmitSegR(req(999, ia(1, 999), 1, 2, 0, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if g >= 10_000 {
		t.Errorf("fair-share grant = %d", g)
	}
	// …and after one renewal round of all 61 reservations, it converges to
	// its fair share of capacity.
	for round := 0; round < 3; round++ {
		for i := uint32(0); i < 60; i++ {
			if _, err := st.RenewSegR(req(i, ia(1, topology.ASID(100+i)), 1, 2, 0, 10_000)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.RenewSegR(req(999, ia(1, 999), 1, 2, 0, 10_000)); err != nil {
			t.Fatal(err)
		}
	}
	g = st.GrantOf(reservation.ID{SrcAS: ia(1, 999), Num: 999})
	fair := DefaultSplit.EERShare(100_000) / 61
	if g < fair*8/10 {
		t.Errorf("newcomer grant %d after renewals, fair share %d", g, fair)
	}
}

// TestCapacityNeverExceeded is the §5.1 safety property: the sum of all
// grants at an egress never exceeds the reservable capacity, under random
// admissions, releases, and renewals.
func TestCapacityNeverExceeded(t *testing.T) {
	const linkKbps = 100_000
	capEg := DefaultSplit.EERShare(linkKbps)
	st := NewState(testAS(t, 3, linkKbps), DefaultSplit)
	rng := rand.New(rand.NewSource(42))
	var live []Request
	total := func() uint64 {
		var sum uint64
		for _, r := range live {
			sum += st.GrantOf(r.ID)
		}
		return sum
	}
	for i := 0; i < 3000; i++ {
		switch {
		case len(live) > 0 && rng.Intn(4) == 0:
			k := rng.Intn(len(live))
			st.Release(live[k].ID)
			live = append(live[:k], live[k+1:]...)
		case len(live) > 0 && rng.Intn(4) == 0:
			k := rng.Intn(len(live))
			r := live[k]
			r.MaxKbps = uint64(1 + rng.Intn(30_000))
			if _, err := st.RenewSegR(r); err == nil {
				live[k] = r
			}
		default:
			r := req(uint32(i+1000), ia(1, topology.ASID(rng.Intn(50)+10)),
				topology.IfID(rng.Intn(2)+1), 3, 0, uint64(1+rng.Intn(30_000)))
			if _, err := st.AdmitSegR(r); err == nil {
				live = append(live, r)
			}
		}
		if got := st.AllocatedKbps(3); got > capEg {
			t.Fatalf("iteration %d: allocated %d > capacity %d", i, got, capEg)
		}
		if got, want := st.AllocatedKbps(3), total(); got != want {
			t.Fatalf("iteration %d: allocEg %d != Σ grants %d", i, got, want)
		}
	}
}

// TestFairnessConvergence checks that equal competitors converge to equal
// grants within a few renewal cycles.
func TestFairnessConvergence(t *testing.T) {
	const linkKbps = 100_000
	capEg := DefaultSplit.EERShare(linkKbps) // 75_000
	st := NewState(testAS(t, 2, linkKbps), DefaultSplit)
	const n = 10
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = req(uint32(i+1), ia(1, topology.ASID(10+i)), 1, 2, 0, 20_000)
		if _, err := st.AdmitSegR(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Renew everyone a few rounds.
	for round := 0; round < 5; round++ {
		for i := range reqs {
			if _, err := st.RenewSegR(reqs[i]); err != nil {
				t.Fatalf("round %d renew %d: %v", round, i, err)
			}
		}
	}
	fair := capEg / n // 7_500 each (demand 20k each, 10× oversubscribed)
	for i := range reqs {
		g := st.GrantOf(reqs[i].ID)
		if g < fair*8/10 || g > fair*12/10 {
			t.Errorf("request %d grant %d not within 20%% of fair share %d", i, g, fair)
		}
	}
}

// TestBotnetSizeIndependence checks the §5.2 property: a benign source's
// grant does not collapse as the number of adversarial sources grows,
// because adversarial demand is bounded by its ingress capacity (step 1).
func TestBotnetSizeIndependence(t *testing.T) {
	const linkKbps = 100_000
	grantWithAttackers := func(k int) uint64 {
		st := NewState(testAS(t, 3, linkKbps), DefaultSplit)
		benign := req(1, ia(1, 5), 1, 3, 0, 10_000)
		if _, err := st.AdmitSegR(benign); err != nil {
			t.Fatal(err)
		}
		// k attacker sources, all arriving through ingress 2, each
		// demanding 50 Mbps.
		for i := 0; i < k; i++ {
			_, _ = st.AdmitSegR(req(uint32(100+i), ia(1, topology.ASID(1000+i)), 2, 3, 0, 50_000))
		}
		// Converge over renewal rounds.
		for round := 0; round < 5; round++ {
			if _, err := st.RenewSegR(benign); err != nil {
				t.Fatalf("k=%d renew: %v", k, err)
			}
			for i := 0; i < k; i++ {
				_, _ = st.RenewSegR(req(uint32(100+i), ia(1, topology.ASID(1000+i)), 2, 3, 0, 50_000))
			}
		}
		return st.GrantOf(benign.ID)
	}
	g10 := grantWithAttackers(10)
	g100 := grantWithAttackers(100)
	if g10 == 0 || g100 == 0 {
		t.Fatalf("benign source starved: g10=%d g100=%d", g10, g100)
	}
	// Growing the botnet 10× must not shrink the benign grant by more than
	// a small factor (the adversarial adjusted demand is ingress-bounded).
	if g100 < g10/2 {
		t.Errorf("benign grant collapsed with botnet size: %d → %d", g10, g100)
	}
}

func TestRenewFailureRestoresOldReservation(t *testing.T) {
	st := NewState(testAS(t, 2, 100_000), DefaultSplit)
	r := req(1, ia(1, 9), 1, 2, 1000, 10_000)
	g, err := st.AdmitSegR(r)
	if err != nil {
		t.Fatal(err)
	}
	// Renewal demanding an impossible minimum fails…
	bad := r
	bad.MinKbps = 80_000
	bad.MaxKbps = 80_000
	if _, err := st.RenewSegR(bad); err == nil {
		t.Fatal("impossible renewal succeeded")
	}
	// …but the old reservation survives intact.
	if got := st.GrantOf(r.ID); got != g {
		t.Errorf("grant after failed renewal = %d, want %d", got, g)
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d", st.Len())
	}
}

func TestReleaseUnknownIsNoop(t *testing.T) {
	st := NewState(testAS(t, 2, 100_000), DefaultSplit)
	st.Release(reservation.ID{SrcAS: ia(1, 9), Num: 77})
	if st.Len() != 0 {
		t.Error("release of unknown ID changed state")
	}
}

func TestReleaseRestoresCapacity(t *testing.T) {
	st := NewState(testAS(t, 2, 100_000), DefaultSplit)
	r := req(1, ia(1, 9), 1, 2, 0, 50_000)
	if _, err := st.AdmitSegR(r); err != nil {
		t.Fatal(err)
	}
	st.Release(r.ID)
	if st.AllocatedKbps(2) != 0 {
		t.Errorf("allocated after release = %d", st.AllocatedKbps(2))
	}
	// Full capacity available again.
	g, err := st.AdmitSegR(req(2, ia(1, 8), 1, 2, 50_000, 50_000))
	if err != nil || g != 50_000 {
		t.Errorf("grant after release = %d, %v", g, err)
	}
}

func TestTubeCapOverride(t *testing.T) {
	st := NewState(testAS(t, 2, 100_000), DefaultSplit)
	st.SetTubeCapKbps(1, 2, 5_000)
	g, err := st.AdmitSegR(req(1, ia(1, 9), 1, 2, 0, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	if g > 5_000 {
		t.Errorf("grant %d exceeds tube cap 5000", g)
	}
}

func TestInternalIngressUnconstrained(t *testing.T) {
	// Requests originating at this AS enter via interface 0, which is
	// unconstrained unless InternalCapacityKbps is set.
	st := NewState(testAS(t, 1, 100_000), DefaultSplit)
	g, err := st.AdmitSegR(req(1, ia(1, 1), 0, 1, 0, 70_000))
	if err != nil {
		t.Fatal(err)
	}
	if g != 70_000 {
		t.Errorf("grant = %d", g)
	}
}

// splitBooks keeps SplitGrant's books for the pairs of one core-SegR, as a
// transfer AS does: per up-SegR the demand and grants, and the core's total.
type splitBooks struct {
	demand, granted map[int]uint64
	total, coreCap  uint64
}

func newSplitBooks(coreCap uint64) *splitBooks {
	return &splitBooks{demand: map[int]uint64{}, granted: map[int]uint64{}, coreCap: coreCap}
}

func (b *splitBooks) admit(up int, req, upCap, avail uint64) uint64 {
	capped := min(req, upCap)
	b.demand[up] += capped
	b.total += capped
	g := SplitGrant(req, avail, b.coreCap, b.demand[up], b.total, b.granted[up])
	b.granted[up] += g
	return g
}

func (b *splitBooks) release(up int, d, g uint64) {
	b.demand[up] -= d
	b.total -= d
	b.granted[up] -= g
}

func TestTransferSplitProportional(t *testing.T) {
	b := newSplitBooks(1000)
	// No contention: full grants.
	g := b.admit(1, 300, 10_000, 1000)
	if g != 300 {
		t.Errorf("uncontended grant = %d", g)
	}
	// Demand now exceeds the core SegR: up2 asks 1500 (total 1800 > 1000).
	// Its fair share is 1000×1500/1800 = 833.
	g = b.admit(2, 1500, 10_000, 700)
	if g > 833 || g == 0 {
		t.Errorf("contended grant = %d, want ≤ 833 and > 0", g)
	}
	// up1 asks again for 500: its fair share is 1000×800/2300 = 347,
	// already granted 300 → at most 47 more.
	g = b.admit(1, 500, 10_000, 700-g)
	if g > 48 {
		t.Errorf("second up1 grant = %d, want ≤ 48", g)
	}
	// A request is capped at its up-SegR in the demand: 5000 asked over a
	// 100 kbps up-SegR weighs 100.
	c := newSplitBooks(1000)
	c.admit(1, 1000, 10_000, 1000)
	if g := c.admit(2, 5000, 100, 1000); g != 1000*100/1100 {
		t.Errorf("grant over a narrow up-SegR = %d, want %d", g, 1000*100/1100)
	}
}

func TestTransferSplitRelease(t *testing.T) {
	b := newSplitBooks(1000)
	g := b.admit(1, 800, 1000, 1000)
	if g != 800 {
		t.Fatalf("grant = %d", g)
	}
	// Returned, the demand no longer counts: the full core is available again.
	b.release(1, 800, 800)
	if g = b.admit(1, 900, 1000, 1000); g != 900 {
		t.Errorf("grant after release = %d", g)
	}
	// Kept, the dead demand shares the core with the live: 1000×1700/1700
	// less the 800 held.
	c := newSplitBooks(1000)
	c.admit(1, 800, 1000, 1000)
	if g = c.admit(1, 900, 1000, 1000); g != 200 {
		t.Errorf("grant over unreturned demand = %d, want 200", g)
	}
}

// BenchmarkAdmitConstantTime demonstrates the Fig. 3 property at unit level:
// admission time with 10 000 pre-existing SegRs on the same interface pair.
func BenchmarkAdmitConstantTime(b *testing.B) {
	st := NewState(testAS(b, 2, 100_000_000), DefaultSplit)
	for i := uint32(0); i < 10_000; i++ {
		if _, err := st.AdmitSegR(req(i, ia(1, topology.ASID(10+i%100)), 1, 2, 0, 1000)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := req(uint32(100_000+i), ia(1, 7), 1, 2, 0, 1000)
		if _, err := st.AdmitSegR(r); err != nil {
			b.Fatal(err)
		}
		st.Release(r.ID)
	}
}
