package gateway

import (
	"errors"
	"testing"

	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/telemetry"
)

func TestDemotePromote(t *testing.T) {
	g := New(srcAS)
	reg := telemetry.NewRegistry("gw")
	g.EnableTelemetry(reg)
	res := testRes(7, 8000)
	if err := g.Install(res, packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	w := g.NewWorker()
	buf := make([]byte, 2048)

	if g.Demoted(7) {
		t.Fatal("fresh install reported demoted")
	}
	if g.Demote(99) {
		t.Error("demoting an unknown reservation reported a transition")
	}
	if !g.Demote(7) {
		t.Fatal("demote did not transition")
	}
	if g.Demote(7) {
		t.Error("second demote reported a transition")
	}
	if !g.Demoted(7) {
		t.Fatal("Demoted false after Demote")
	}
	if _, err := w.Build(7, []byte("x"), buf, baseNs); !errors.Is(err, ErrDemoted) {
		t.Fatalf("build on demoted flow: %v", err)
	}

	if !g.Promote(7) {
		t.Fatal("promote did not transition")
	}
	if g.Promote(7) {
		t.Error("second promote reported a transition")
	}
	if _, err := w.Build(7, []byte("x"), buf, baseNs); err != nil {
		t.Fatalf("build after promote: %v", err)
	}

	if got := reg.Counter("gateway.demotions").Value(); got != 1 {
		t.Errorf("demotions counter = %d, want 1", got)
	}
	if got := reg.Counter("gateway.promotions").Value(); got != 1 {
		t.Errorf("promotions counter = %d, want 1", got)
	}
}

// Installing a fresh version over a demoted flow re-promotes it: the gateway
// serves the new version in the reserved class without an explicit Promote.
func TestInstallRepromotesDemotedFlow(t *testing.T) {
	g := New(srcAS)
	reg := telemetry.NewRegistry("gw")
	g.EnableTelemetry(reg)
	res := testRes(7, 8000)
	if err := g.Install(res, packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	if !g.Demote(7) {
		t.Fatal("demote did not transition")
	}
	res2 := res
	res2.Ver++
	res2.ExpT += 16
	if err := g.Install(res2, packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	if g.Demoted(7) {
		t.Fatal("flow still demoted after installing a fresh version")
	}
	w := g.NewWorker()
	buf := make([]byte, 2048)
	if _, err := w.Build(7, []byte("x"), buf, baseNs); err != nil {
		t.Fatalf("build after reinstall: %v", err)
	}
	if got := reg.Counter("gateway.promotions").Value(); got != 1 {
		t.Errorf("promotions counter = %d, want 1", got)
	}
}

// TestExpireTracedAllocatesNothing: with telemetry on, Expire traces each EER
// it drops by its numeric id, so dropping them allocates nothing, and the
// trace reads each id as reservation.ID.String() would.
func TestExpireTracedAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs, perRun = 100, 4
	g := New(srcAS)
	reg := telemetry.NewRegistry("gw")
	g.EnableTelemetry(reg)
	base := uint32(baseNs / 1e9)
	// perRun EERs expire at each second after base; AllocsPerRun runs once more
	// to warm up.
	for i := range (runs + 1) * perRun {
		res := testRes(uint32(i+1), 1000)
		res.ExpT = base + 1 + uint32(i/perRun)
		if err := g.Install(res, packet.EERInfo{}, tPath, tAuths); err != nil {
			t.Fatal(err)
		}
	}
	now := base
	allocs := testing.AllocsPerRun(runs, func() {
		now++
		if n := g.Expire(now); n != perRun {
			t.Fatalf("Expire(%d) dropped %d, want %d", now, n, perRun)
		}
	})
	if allocs != 0 {
		t.Errorf("Expire of %d traced EERs allocates %.1f times", perRun, allocs)
	}
	evs := reg.Snapshot().Traces["gateway.lifecycle"]
	last := evs[len(evs)-1]
	want := reservation.ID{SrcAS: srcAS, Num: (runs+1)*perRun - perRun + 1}.String()
	if last.Kind != telemetry.EvEEExpire || last.Res != want || last.TimeNs != int64(now)*1e9 {
		t.Errorf("last trace event %v, want an expiry of %s at %ds", last, want, now)
	}
}
