package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"colibri/internal/core"
	"colibri/internal/cryptoutil"
	"colibri/internal/cserv"
	"colibri/internal/netsim"
	"colibri/internal/packet"
	"colibri/internal/topology"
)

// StormConfig parameterizes the renewal-storm scenario: a large fleet of
// EERs, all established in the same virtual second, so their 16 s lifetimes
// expire together and the whole population renews inside one 4 s lead
// window — the §4.2 worst case. Mid-run, the core CServ 2-1 crashes for
// longer than an EER lifetime, so every flow falls back to best-effort
// (§3.2) and must be re-promoted by re-admission once the CServ recovers.
// The run measures the batched renewal wave's throughput.
type StormConfig struct {
	// Seed drives the retry jitter; same seed, same run.
	Seed uint64
	// Flows is the EER population (default 1,000,000).
	Flows int
	// BwKbps is the per-flow reservation (default 1 kbps — the storm
	// stresses the control plane's operation rate, not link capacity).
	BwKbps uint64
	// SegRKbps is the SegR bandwidth backing the fleet (default 30 Gbps).
	SegRKbps uint64
	// Shards is the per-AS CPlane shard count (default 8).
	Shards int
	// BatchSize caps one renewal wave message (default cserv.DefaultBatchSize).
	BatchSize int
	// LeadS is the keepers' renewal lead time (default 4 s).
	LeadS int
	// CrashFrom/CrashTo bound the CServ 2-1 outage in seconds after
	// establishment (defaults 13 and 31: the window opens right after the
	// first full renewal wave and outlives the renewed versions, forcing
	// demotion of the entire fleet).
	CrashFrom, CrashTo int
}

func (c StormConfig) withDefaults() StormConfig {
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.Flows == 0 {
		c.Flows = 1_000_000
	}
	if c.BwKbps == 0 {
		c.BwKbps = 1
	}
	if c.SegRKbps == 0 {
		c.SegRKbps = 30_000_000
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.LeadS == 0 {
		c.LeadS = 4
	}
	if c.CrashFrom == 0 && c.CrashTo == 0 {
		c.CrashFrom, c.CrashTo = 13, 31
	}
	return c
}

// StormRow is one run's outcome. Everything except the timings, the derived
// rate and FleetBytes is a function of the config alone.
type StormRow struct {
	// EstablishNs is the time to admit the whole fleet; StormNs the first
	// full renewal wave (every EER at once, through the batched path);
	// RecoverNs the re-admission wave after the crash.
	EstablishNs int64
	StormNs     int64
	RecoverNs   int64
	// RenewPerSec is Flows / StormNs — the headline renewal throughput.
	RenewPerSec float64

	// StormRenewed counts grants installed by the measured storm wave;
	// Demotions/Promotions the §3.2 fallback and recovery transitions;
	// Failures the failed renewal attempts across the outage.
	StormRenewed uint64
	Demotions    uint64
	Promotions   uint64
	Failures     uint64
	DedupHits    uint64

	// OverAdmitted reports a violated invariant: some AS's CPlane charged
	// more EER bandwidth to a SegR than the SegR's active grant.
	OverAdmitted bool

	// FleetBytes is the live heap the keeper fleet held at the end of the
	// run: what releasing it gives back. It is measured, and the allocator's
	// per-P caches move it by a few hundred bytes from run to run, so
	// FormatStorm leaves it out.
	FleetBytes uint64
}

// StormResult is a run's outcome with the config (defaults filled in) that
// produced it.
type StormResult struct {
	Config StormConfig
	Row    StormRow
}

// stormGW is the minimal gateway the keepers drive; the storm measures
// control-plane behavior, so installs are counted, not executed.
type stormGW struct {
	installs uint64
}

func (g *stormGW) Install(packet.ResInfo, packet.EERInfo, []packet.HopField, []cryptoutil.Key) error {
	g.installs++
	return nil
}
func (g *stormGW) Demote(uint32) bool  { return true }
func (g *stormGW) Promote(uint32) bool { return true }

// RunStorm executes the scenario.
func RunStorm(cfg StormConfig) (*StormResult, error) {
	cfg = cfg.withDefaults()
	res := &StormResult{Config: cfg}
	row := &res.Row
	topo := topology.TwoISD(topology.LinkSpec{})
	crashIA := topology.MustIA(2, 1)
	armed := false
	plans := make(map[topology.IA]*netsim.FaultPlan)
	var retries []*cserv.RetryTransport
	net, err := core.NewNetwork(topo, core.Options{
		// The whole fleet arrives in single virtual seconds; the per-AS
		// request budget must not be the bottleneck under test.
		RateLimit:    1 << 30,
		CPlaneShards: cfg.Shards,
		WrapTransport: func(ia topology.IA, inner cserv.Transport) cserv.Transport {
			rt := cserv.NewRetryTransport(
				&chaosTransport{self: ia, inner: inner, plans: plans, armed: &armed},
				cserv.RetryPolicy{Seed: cfg.Seed ^ uint64(ia), DeadlineNs: 300e6},
				nil)
			retries = append(retries, rt)
			return rt
		},
	})
	if err != nil {
		return nil, err
	}
	for _, ia := range topo.SortedIAs() {
		plans[ia] = netsim.NewFaultPlan(cfg.Seed ^ uint64(ia))
	}
	// The chaosTransport reads the clock lazily; wire it now that the
	// network (and its clock) exists.
	for _, rt := range retries {
		rt.Inner.(*chaosTransport).clock = net.Clock
	}
	if err := net.AutoSetupSegRs(cfg.SegRKbps); err != nil {
		return nil, err
	}

	// Establish the fleet in one virtual second, so every lifetime expires
	// in the same second and the whole population renews in one window.
	src := net.Node(topology.MustIA(1, 11)).CServ
	gw := &stormGW{}
	fleet := cserv.NewKeeperFleet(src)
	if cfg.BatchSize > 0 {
		fleet.BatchSize = cfg.BatchSize
	}
	estStart := nowNs()
	for i := 0; i < cfg.Flows; i++ {
		g, gerr := src.RequestEER(uint32(i+1), uint32(1<<20+i), topology.MustIA(2, 11), cfg.BwKbps)
		if gerr != nil {
			return nil, fmt.Errorf("storm: establishing flow %d: %w", i, gerr)
		}
		fleet.Add(cserv.NewEERKeeper(src, gw, g, uint32(cfg.LeadS)))
	}
	row.EstablishNs = nowNs() - estStart

	// Arm the crash and drive virtual seconds. The fleet first renews in
	// full at second 16-LeadS (the measured storm wave), then the outage
	// kills every later wave until the fleet demotes, and the recovery
	// wave re-admits and re-promotes it.
	startNs := net.Clock.NowNs()
	plans[crashIA].AddDown(
		startNs+int64(cfg.CrashFrom)*1e9, startNs+int64(cfg.CrashTo)*1e9)
	armed = true

	end := cfg.CrashTo + 4
	for s := 1; s <= end; s++ {
		net.Clock.Advance(1e9)
		net.Tick()
		installsBefore := gw.installs
		t0 := nowNs()
		failed := fleet.Tick()
		elapsed := nowNs() - t0
		renewed := gw.installs - installsBefore
		row.Failures += uint64(failed)
		if s < cfg.CrashFrom && renewed > row.StormRenewed {
			// The pre-crash full wave: every flow renews at once.
			row.StormRenewed = renewed
			row.StormNs = elapsed
		}
		if s >= cfg.CrashTo && renewed > 0 && row.RecoverNs == 0 {
			row.RecoverNs = elapsed
		}
	}
	if row.StormNs > 0 {
		row.RenewPerSec = float64(row.StormRenewed) / (float64(row.StormNs) / 1e9)
	}
	held := liveHeap()
	runtime.KeepAlive(fleet)
	if after := liveHeap(); held > after {
		row.FleetBytes = held - after
	}

	m := src.Metrics()
	row.Demotions = m.Demotions.Value()
	row.Promotions = m.Promotions.Value()
	for _, ia := range topo.SortedIAs() {
		row.DedupHits += net.Node(ia).CServ.Metrics().DedupHits.Value()
	}
	row.OverAdmitted = stormOverAdmitted(net, topo)
	return res, nil
}

// liveHeap collects garbage and returns the heap still allocated.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// stormOverAdmitted checks the zero-double-admission invariant: at every AS,
// for every SegR it participates in, the maximum EER bandwidth the sharded
// CPlane charged to the SegR never exceeds the SegR's active grant.
func stormOverAdmitted(net *core.Network, topo *topology.Topology) bool {
	for _, owner := range topo.SortedIAs() {
		for _, segr := range net.Node(owner).CServ.Store().InitiatedSegRs() {
			for _, ia := range topo.SortedIAs() {
				svc := net.Node(ia).CServ
				cp := svc.CPlane()
				if cp == nil {
					continue
				}
				m, ok := cp.SegDemandMax(segr.ID)
				if !ok {
					continue
				}
				local, err := svc.Store().GetSegR(segr.ID)
				if err != nil {
					continue
				}
				if m > local.Active.BwKbps {
					return true
				}
			}
		}
	}
	return false
}

// FormatStorm renders the run.
func FormatStorm(r *StormResult) string {
	var b strings.Builder
	c := r.Config
	fmt.Fprintf(&b, "§4.2 — renewal storm through the live CPlane path\n")
	fmt.Fprintf(&b, "scenario: %d EERs renewing in one %d s window, %d shards, CServ 2-1 down [%d s, %d s), seed %d\n",
		c.Flows, c.LeadS, c.Shards, c.CrashFrom, c.CrashTo, c.Seed)
	fmt.Fprintf(&b, "| establish | storm wave | renew/s | recover wave | demotions | re-promotions | dedups | over-admission |\n")
	fmt.Fprintf(&b, "|---:|---:|---:|---:|---:|---:|---:|:---|\n")
	row := r.Row
	over := "none"
	if row.OverAdmitted {
		over = "VIOLATED"
	}
	fmt.Fprintf(&b, "| %s | %s | %.0f | %s | %d | %d | %d | %s |\n",
		fmtNs(row.EstablishNs), fmtNs(row.StormNs), row.RenewPerSec,
		fmtNs(row.RecoverNs), row.Demotions, row.Promotions, row.DedupHits, over)
	return b.String()
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2f s", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1f ms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1f µs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%d ns", ns)
	}
}
