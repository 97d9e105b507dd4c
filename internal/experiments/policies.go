package experiments

import (
	"fmt"
	"strings"

	"colibri/internal/policy"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// The reservation-model head-to-head: the same workload — a population of
// legitimate flows renewing forever on one multi-hop path while an
// adversary floods fresh setups at every renewal instant (the §5.3 DoC
// shape) — driven through each reservation model behind policy.Policy:
//
//   - bounded-tube (the paper): renewals replace the version in place with
//     a lead, so the flood never finds freed bandwidth;
//   - flyover (hop-local, short lifetimes): a renewal IS a fresh setup, so
//     it cannot lead (the overlap would double-charge a full hop) and must
//     race the flood at the expiry boundary — and loses, first-come-first-
//     served;
//   - hummingbird (path-decoupled time slices): an early renewal books the
//     NEXT slice at the current one's end, so the flood probes an
//     already-sold window.
//
// Each cell reports the control-plane cost (setup and renewal latency, hop
// operations) and the outcome under attack (admitted attacker setups,
// surviving legitimate flows, tube utilization). Timings go through the
// package clock seam, so runs under SetClock(StepClock(...)) are
// byte-identical; reservation time is a virtual uint32 clock.

// PoliciesConfig parameterizes the head-to-head. The zero value is filled
// in by defaults.
type PoliciesConfig struct {
	// Flows is the legitimate flow population (default 2000; keep it a
	// multiple of 4×max(Shards) so every tube stripe fits exactly).
	Flows int
	// Hops is the path length (default 4).
	Hops int
	// Waves is the number of 4 s renewal waves under attack (default 6).
	Waves int
	// AttackFlows is the adversary's fresh setups per wave (default 500).
	AttackFlows int
	// Policies lists the models to sweep (default all).
	Policies []string
	// Shards lists the per-AS engine shard counts (default 1, 4).
	Shards []int
}

func (c PoliciesConfig) withDefaults() PoliciesConfig {
	if c.Flows == 0 {
		c.Flows = 2000
	}
	if c.Hops == 0 {
		c.Hops = 4
	}
	if c.Waves == 0 {
		c.Waves = 6
	}
	if c.AttackFlows == 0 {
		c.AttackFlows = 500
	}
	if len(c.Policies) == 0 {
		c.Policies = policy.Names()
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 4}
	}
	return c
}

// PoliciesRow is one cell of the sweep.
type PoliciesRow struct {
	Policy string
	Shards int
	Flows  int
	// SetupNs and RenewNs are per-operation latencies over whole phases.
	SetupNs, RenewNs float64
	// HopOps counts every per-hop engine operation the model issued — the
	// inter-domain control-plane load.
	HopOps uint64
	// AttackAdmitted is the total number of adversary setups admitted.
	AttackAdmitted int
	// SurvivorPct is the share of legitimate flows still holding their
	// reservation after the last wave.
	SurvivorPct float64
	// UtilizationPct is peak charged demand over granted tube bandwidth at
	// the end of the run.
	UtilizationPct float64
}

// policiesB is the per-flow demand quantum (kbps).
const policiesB = 100

// policiesPath builds the experiment's linear path (see policy tests for
// the interface convention: in 1, out 2 at every on-path AS).
func policiesPath(hops int, capKbps uint64) ([]*topology.AS, []policy.Hop) {
	topo := topology.New()
	for i := 0; i <= hops+1; i++ {
		topo.AddAS(topology.MustIA(1, topology.ASID(i+1)), true)
	}
	for i := 0; i <= hops; i++ {
		topo.MustConnect(topology.MustIA(1, topology.ASID(i+1)), 2,
			topology.MustIA(1, topology.ASID(i+2)), 1,
			topology.LinkCore, topology.LinkSpec{CapacityKbps: capKbps})
	}
	ases := make([]*topology.AS, hops)
	path := make([]policy.Hop, hops)
	for i := 0; i < hops; i++ {
		a := topo.AS(topology.MustIA(1, topology.ASID(i+2)))
		ases[i] = a
		path[i] = policy.Hop{IA: a.IA, In: 1, Eg: 2}
	}
	return ases, path
}

// RunPolicies sweeps the reservation models over the shard counts.
func RunPolicies(cfg PoliciesConfig) ([]PoliciesRow, error) {
	cfg = cfg.withDefaults()
	var rows []PoliciesRow
	for _, name := range cfg.Policies {
		for _, shards := range cfg.Shards {
			row, err := runPoliciesCell(name, shards, cfg)
			if err != nil {
				return nil, fmt.Errorf("policies %s/%d shards: %w", name, shards, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runPoliciesCell(name string, shards int, cfg PoliciesConfig) (PoliciesRow, error) {
	src := topology.MustIA(1, 99)
	legitID := func(i int) reservation.ID { return reservation.ID{SrcAS: src, Num: uint32(i)} }
	attackID := func(w, i int) reservation.ID {
		return reservation.ID{SrcAS: src, Num: uint32(1<<19 | w*cfg.AttackFlows + i)}
	}
	demand := uint64(cfg.Flows) * policiesB
	// Links far above the tube demand, so the per-shard capacity split never
	// starves a stripe and the provisioned tubes are the binding constraint.
	ases, path := policiesPath(cfg.Hops, demand*8)

	var now uint32 = 1_000_000
	pol, err := policy.New(name, policy.Config{
		ASes:   ases,
		Shards: shards,
		Clock:  func() uint32 { return now },
	})
	if err != nil {
		return PoliciesRow{}, err
	}
	if err := pol.Provision(path, demand); err != nil {
		return PoliciesRow{}, err
	}

	// Phase 1: the legitimate population fills the tubes exactly.
	start := nowNs()
	for i := 0; i < cfg.Flows; i++ {
		if _, err := pol.Setup(legitID(i), path, policiesB); err != nil {
			return PoliciesRow{}, fmt.Errorf("legit setup %d: %w", i, err)
		}
	}
	setupNs := float64(nowNs()-start) / float64(cfg.Flows)

	// Phase 2: renewal waves under attack. Every model renews once per 4 s
	// wave. Bounded-tube and hummingbird renew with a 2 s lead (in-place
	// replacement / advance booking make that free); a flyover renewal is a
	// fresh setup whose overlap would double-charge the full tubes, so it
	// can only fire at the expiry boundary — AFTER the adversary's flood,
	// which models the DoC race it cannot win by construction.
	live := make([]reservation.ID, cfg.Flows)
	for i := range live {
		live[i] = legitID(i)
	}
	attackAdmitted := 0
	var renewNs, renewOps float64
	renewWave := func() {
		grants := make([]uint64, len(live))
		errs := make([]error, len(live))
		start := nowNs()
		pol.RenewWave(live, grants, errs)
		renewNs += float64(nowNs() - start)
		renewOps += float64(len(live))
		kept := live[:0]
		for i, id := range live {
			if errs[i] == nil {
				kept = append(kept, id)
			}
		}
		live = kept
	}
	for w := 0; w < cfg.Waves; w++ {
		now += 2
		if name != policy.NameFlyover {
			renewWave()
		}
		now += 2 // the expiry boundary: freed bandwidth, if any, is up for grabs
		for i := 0; i < cfg.AttackFlows; i++ {
			if _, err := pol.Setup(attackID(w, i), path, policiesB); err == nil {
				attackAdmitted++
			}
		}
		if name == policy.NameFlyover {
			renewWave()
		}
		pol.Tick()
	}

	// Outcome: survivors and tube utilization from the conservation audit.
	var peak, granted uint64
	for _, a := range pol.Audit(now, now+32) {
		for _, s := range a.Segs {
			peak += s.PeakKbps
			granted += s.GrantKbps
		}
	}
	row := PoliciesRow{
		Policy: name, Shards: shards, Flows: cfg.Flows,
		SetupNs:        setupNs,
		HopOps:         pol.Counts().HopOps,
		AttackAdmitted: attackAdmitted,
		SurvivorPct:    100 * float64(len(live)) / float64(cfg.Flows),
	}
	if renewOps > 0 {
		row.RenewNs = renewNs / renewOps
	}
	if granted > 0 {
		row.UtilizationPct = 100 * float64(peak) / float64(granted)
	}
	return row, nil
}

// FormatPolicies renders the sweep as a markdown table.
func FormatPolicies(rows []PoliciesRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "reservation models head-to-head: renewal cost and DoC-flood outcome per policy\n")
	fmt.Fprintf(&b, "| policy | shards | flows | setup µs | renew µs | hop ops | attack admits | survivors %% | util %% |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %d | %.2f | %.2f | %d | %d | %.1f | %.1f |\n",
			r.Policy, r.Shards, r.Flows, r.SetupNs/1e3, r.RenewNs/1e3,
			r.HopOps, r.AttackAdmitted, r.SurvivorPct, r.UtilizationPct)
	}
	return b.String()
}
