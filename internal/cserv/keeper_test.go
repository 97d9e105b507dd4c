package cserv

import (
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/topology"
)

// gateTransport fails every call while armed — a link that is down (or a
// crashed next-hop CServ) from the initiator's point of view.
type gateTransport struct {
	inner Transport
	fail  atomic.Bool
}

func (g *gateTransport) Call(dst topology.IA, msg []byte) ([]byte, error) {
	if g.fail.Load() {
		return nil, errors.New("gate: transport down")
	}
	return g.inner.Call(dst, msg)
}

// fakeInstaller records the keeper's gateway interactions, mirroring the
// real gateway's semantics (Install of a fresh version clears demotion).
type fakeInstaller struct {
	installs int
	demotes  int
	promotes int
	demoted  bool
	// refuse makes Install fail, as a gateway refuses a path it cannot carry.
	refuse bool
}

func (fi *fakeInstaller) Install(packet.ResInfo, packet.EERInfo, []packet.HopField, []cryptoutil.Key) error {
	if fi.refuse {
		return errors.New("fake gateway: install refused")
	}
	fi.installs++
	fi.demoted = false
	return nil
}

func (fi *fakeInstaller) Demote(uint32) bool {
	was := fi.demoted
	fi.demoted = true
	if !was {
		fi.demotes++
	}
	return !was
}

func (fi *fakeInstaller) Promote(uint32) bool {
	was := fi.demoted
	fi.demoted = false
	if was {
		fi.promotes++
	}
	return was
}

// TestKeeperDemotesAndRepromotes drives the §3.2/§4.2 failover end to end:
// renewals succeed → failures within the lead window are tolerated while an
// older version still serves → the flow is demoted exactly when the newest
// version dies → renewal recovery re-promotes it.
func TestKeeperDemotesAndRepromotes(t *testing.T) {
	gate := &gateTransport{}
	f := twoISDFabric(t, func(iaKey topology.IA, cfg *Config) {
		if iaKey == ia(1, 11) {
			gate.inner = cfg.Transport
			cfg.Transport = gate
		}
	})
	f.setupAllSegRs(t, 50_000)
	src := f.services[ia(1, 11)]
	grant, err := src.RequestEER(1, 2, ia(2, 11), 8_000)
	if err != nil {
		t.Fatal(err)
	}
	gw := &fakeInstaller{}
	k := NewEERKeeper(src, gw, grant, 4)

	// Fresh version: Tick is a no-op.
	if err := k.Tick(); err != nil || k.Renewals != 0 || gw.installs != 0 {
		t.Fatalf("fresh tick: err=%v renewals=%d installs=%d", err, k.Renewals, gw.installs)
	}

	// Inside the lead window: renew and install.
	f.clock.Store(t0 + 13) // exp t0+16 <= now+4
	if err := k.Tick(); err != nil {
		t.Fatalf("renewal tick: %v", err)
	}
	if k.Renewals != 1 || gw.installs != 1 {
		t.Fatalf("after renewal: renewals=%d installs=%d", k.Renewals, gw.installs)
	}
	exp := k.Grant().Res.ExpT // t0+29

	// Transport dies. A failure while the newest version still has life
	// left is tolerated — no demotion yet.
	gate.fail.Store(true)
	f.clock.Store(exp - 3)
	if err := k.Tick(); err == nil {
		t.Fatal("renewal over a dead transport succeeded")
	}
	if gw.demotes != 0 || k.Demoted() {
		t.Fatalf("demoted while old version still serving (demotes=%d)", gw.demotes)
	}

	// The newest version is about to die and renewal still fails: demote.
	f.clock.Store(exp - 1)
	if err := k.Tick(); err == nil {
		t.Fatal("renewal over a dead transport succeeded")
	}
	if gw.demotes != 1 || !k.Demoted() {
		t.Fatalf("not demoted at expiry (demotes=%d demoted=%v)", gw.demotes, k.Demoted())
	}

	// Still down: keeper keeps trying, but does not demote twice.
	f.clock.Store(exp + 1)
	if err := k.Tick(); err == nil {
		t.Fatal("renewal over a dead transport succeeded")
	}
	if gw.demotes != 1 {
		t.Fatalf("double demotion (demotes=%d)", gw.demotes)
	}

	// Transport recovers: the next renewal installs a fresh version and
	// re-promotes the flow.
	gate.fail.Store(false)
	f.clock.Store(exp + 3)
	if err := k.Tick(); err != nil {
		t.Fatalf("recovery tick: %v", err)
	}
	if k.Demoted() || gw.installs != 2 {
		t.Fatalf("after recovery: demoted=%v installs=%d", k.Demoted(), gw.installs)
	}
	if k.Renewals != 2 || k.Failures != 3 {
		t.Fatalf("counters: renewals=%d failures=%d", k.Renewals, k.Failures)
	}
	if got := src.Metrics().Demotions.Value(); got != 1 {
		t.Errorf("Demotions = %d, want 1", got)
	}
	if got := src.Metrics().Promotions.Value(); got != 1 {
		t.Errorf("Promotions = %d, want 1", got)
	}
}

// TestKeeperKeepsServingVersionWhenInstallFails: a renewal the gateway does
// not take is a failure, alone or in a wave, and the keeper's version —
// renewed in place on success — stays the version the gateway still serves,
// σs and all (§4.2). The grants the keepers were built from are never written.
func TestKeeperKeepsServingVersionWhenInstallFails(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	gw := &fakeInstaller{refuse: true}
	grants := requestEERs(t, src, 3, 100)
	solo := NewEERKeeper(src, gw, grants[0], 4)
	fleet := NewKeeperFleet(src)
	for _, g := range grants[1:] {
		fleet.Add(NewEERKeeper(src, gw, g, 4))
	}
	// state returns keeper i's version and counts: the solo keeper's, then
	// the fleet's.
	state := func(i int) (EERGrant, uint64, uint64) {
		if i == 0 {
			return *solo.Grant(), solo.Renewals, solo.Failures
		}
		return fleet.Grant(i - 1), fleet.Renewals(i - 1), fleet.Failures(i - 1)
	}
	before := make([]EERGrant, len(grants))
	for i := range before {
		before[i], _, _ = state(i)
		before[i].HopAuths = slices.Clone(before[i].HopAuths)
	}
	f.clock.Add(13)
	if err := solo.Tick(); err == nil {
		t.Fatal("solo renewal succeeded although the gateway refused it")
	}
	if failed := fleet.Tick(); failed != 2 {
		t.Fatalf("%d of 2 wave items failed", failed)
	}
	for i := range before {
		g, renewals, failures := state(i)
		if g.Res != before[i].Res || !slices.Equal(g.HopAuths, before[i].HopAuths) || renewals != 0 || failures != 1 {
			t.Fatalf("keeper %d after a refused install: version %d, renewals %d, failures %d; want version %d, its σs, 0 and 1",
				i, g.Res.Ver, renewals, failures, before[i].Res.Ver)
		}
		checkHopAuths(t, f, &g)
	}
	gw.refuse = false
	f.clock.Add(1)
	if err := solo.Tick(); err != nil {
		t.Fatal(err)
	}
	if failed := fleet.Tick(); failed != 0 {
		t.Fatalf("%d wave items failed", failed)
	}
	for i := range before {
		g, renewals, _ := state(i)
		if g.Res.Ver != before[i].Res.Ver+1 || renewals != 1 {
			t.Fatalf("keeper %d: version %d after %d renewals", i, g.Res.Ver, renewals)
		}
		checkHopAuths(t, f, &g)
		if g := grants[i]; g.Res != before[i].Res || !slices.Equal(g.HopAuths, before[i].HopAuths) {
			t.Fatalf("keeper %d wrote the grant it was built from", i)
		}
	}
}

// TestFleetBytesPerKeeper pins what a fleet keeps per EER: 10 000 keepers over
// one 5-hop chain hold at most 130 live heap bytes each once the fleet has
// taken them — their 80 bytes of σs and about 40 of columns, the chain kept
// once. A fleet that kept each keeper and a grant per keeper held about 384.
func TestFleetBytesPerKeeper(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	f := cpFabric(t, 4, highRate)
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	grant := requestEERs(t, src, 1, 100)[0]
	if len(grant.PathHops) != 5 {
		t.Fatalf("the chain has %d hops, want 5", len(grant.PathHops))
	}
	const n, budget = 10_000, 130
	gw := &fakeInstaller{}
	// build measures the live heap one fleet adds; the least of three is the
	// fleet's, the rest other goroutines' garbage.
	build := func() float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fleet := NewKeeperFleet(src)
		for i := range uint32(n) {
			g := *grant
			g.ID.Num, g.Res.ResID = 1<<20+i, 1<<20+i
			g.EER.SrcHost, g.EER.DstHost = i, i+n
			fleet.Add(NewEERKeeper(src, gw, &g, 4))
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(fleet)
		if fleet.Len() != n {
			t.Fatalf("the fleet has %d keepers, want %d", fleet.Len(), n)
		}
		return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	}
	per := min(build(), build(), build())
	t.Logf("%.1f heap bytes per keeper", per)
	if per > budget {
		t.Fatalf("%d keepers hold %.1f heap bytes each, budget %d", n, per, budget)
	}
}

// TestFleetFindsChainsByContent: keepers whose grants carry equal chains in
// different memory ride one chain, found by content the first time the fleet
// meets the memory and by identity after that, and a tick renews them all.
func TestFleetFindsChainsByContent(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	grants := requestEERs(t, src, 4, 100)
	copied := *grants[1]
	copied.Path, copied.PathHops = slices.Clone(copied.Path), slices.Clone(copied.PathHops)
	copied.Splits, copied.SegIDs = slices.Clone(copied.Splits), slices.Clone(copied.SegIDs)
	grants[1] = &copied
	fleet := NewKeeperFleet(src)
	for _, g := range grants {
		fleet.Add(NewEERKeeper(src, &fakeInstaller{}, g, 4))
	}
	if len(fleet.chains) != 1 || len(fleet.chainAt) != 2 || len(fleet.chainBy) != 1 {
		t.Fatalf("%d chains, %d by identity, %d by content; want 1, 2, 1", len(fleet.chains), len(fleet.chainAt), len(fleet.chainBy))
	}
	f.clock.Add(13)
	if failed := fleet.Tick(); failed != 0 {
		t.Fatalf("%d renewals failed", failed)
	}
	for i := range fleet.Len() {
		g := fleet.Grant(i)
		if fleet.Renewals(i) != 1 || g.ID != grants[i].ID || g.Res.Ver != grants[i].Res.Ver+1 {
			t.Fatalf("keeper %d: %s at version %d after %d renewals", i, g.ID, g.Res.Ver, fleet.Renewals(i))
		}
		checkHopAuths(t, f, &g)
	}
}
