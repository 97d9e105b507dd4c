package experiments

import (
	"fmt"
	"strings"

	"colibri/internal/admission"
	"colibri/internal/cserv"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// CPlaneConfig parameterizes the control-plane scaling experiment: for each
// (EER count, shard count) cell a fresh cserv.CPlane is driven through SegR
// setup, EER setup, renewal waves and teardown, and the per-operation
// latencies are reported. The zero value is filled in by defaults.
type CPlaneConfig struct {
	// Sizes lists the concurrent-EER counts to sweep (default 1e3, 1e4,
	// 1e5; §6 argues a single CServ handles hundreds of thousands of EERs).
	Sizes []int
	// Shards lists the CPlane shard counts (default 1, 4, 16).
	Shards []int
	// Waves is the number of full renewal waves measured (default 3).
	Waves int
}

func (c CPlaneConfig) withDefaults() CPlaneConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1_000, 10_000, 100_000}
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 4, 16}
	}
	if c.Waves == 0 {
		c.Waves = 3
	}
	return c
}

// CPlaneRow is one cell of the sweep.
type CPlaneRow struct {
	Shards int
	EERs   int
	SegRs  int
	// Per-operation latencies in nanoseconds, measured over whole phases.
	SegSetupNs, EESetupNs, RenewNs, TeardownNs float64
	// RenewPerSec is the renewal throughput (1e9 / RenewNs).
	RenewPerSec float64
	// Rejected counts refused EER setups (should be 0: the capacity is
	// provisioned so the workload fits).
	Rejected uint64
}

// cplaneIfaces is the transit-AS fan-out the experiment admits across.
const cplaneIfaces = 4

// cplaneAS builds the experiment's AS: a core AS with cplaneIfaces links
// whose capacity scales with the SegR count so admission grants the full
// demand of every reservation (the experiment measures control-plane
// throughput, not fairness under contention).
func cplaneAS(segrs int) *topology.AS {
	topo := topology.New()
	center := topology.MustIA(1, 1)
	topo.AddAS(center, true)
	capKbps := uint64(segrs) * 2_000
	if capKbps < 1_000_000 {
		capKbps = 1_000_000
	}
	for i := 1; i <= cplaneIfaces; i++ {
		n := topology.MustIA(1, topology.ASID(100+i))
		topo.AddAS(n, true)
		topo.MustConnect(center, topology.IfID(i), n, 1, topology.LinkCore,
			topology.LinkSpec{CapacityKbps: capKbps})
	}
	return topo.AS(center)
}

// RunCPlane sweeps the control-plane engine. Every cell uses a virtual
// control-plane clock (advanced between renewal waves), so reservation
// expiry is deterministic; elapsed time is measured through the package
// clock seam, so runs under SetClock(StepClock(...)) are byte-identical.
func RunCPlane(cfg CPlaneConfig) ([]CPlaneRow, error) {
	cfg = cfg.withDefaults()
	var rows []CPlaneRow
	for _, size := range cfg.Sizes {
		for _, shards := range cfg.Shards {
			row, err := runCPlaneCell(shards, size, cfg.Waves)
			if err != nil {
				return nil, fmt.Errorf("cplane %d shards/%d EERs: %w", shards, size, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runCPlaneCell(shards, eers, waves int) (CPlaneRow, error) {
	segrs := eers / 10
	if segrs < 1 {
		segrs = 1
	}
	// Virtual control-plane time: advanced explicitly so EER lifetimes
	// behave identically on every host.
	var now uint32 = 1_000_000
	cp, err := cserv.NewCPlane(cserv.CPlaneConfig{
		AS:     cplaneAS(segrs),
		Split:  admission.DefaultSplit,
		Shards: shards,
		Clock:  func() uint32 { return now },
	})
	if err != nil {
		return CPlaneRow{}, err
	}
	src := topology.MustIA(1, 7)
	segID := func(i int) reservation.ID { return reservation.ID{SrcAS: src, Num: uint32(i)} }
	eerID := func(i int) reservation.ID { return reservation.ID{SrcAS: src, Num: uint32(1<<30 | i)} }

	// Phase 1: SegR setup. Each SegR demands 1000 kbps; capacity is
	// provisioned so the grant is the full demand.
	start := nowNs()
	for i := 0; i < segrs; i++ {
		req := admission.Request{
			ID:      segID(i),
			Src:     src,
			In:      topology.IfID(1 + i%cplaneIfaces),
			Eg:      topology.IfID(1 + (i+1)%cplaneIfaces),
			MaxKbps: 1_000,
		}
		if _, err := cp.AddSegR(req); err != nil {
			return CPlaneRow{}, fmt.Errorf("SegR %d: %w", i, err)
		}
	}
	segSetupNs := float64(nowNs()-start) / float64(segrs)

	// Phase 2: EER setup, round-robin over the SegRs, 10 EERs of 100 kbps
	// per 1000-kbps SegR — an exact fit.
	start = nowNs()
	for i := 0; i < eers; i++ {
		if err := cp.SetupEER(eerID(i), segID(i%segrs), 100, now+16); err != nil {
			return CPlaneRow{}, fmt.Errorf("EER %d: %w", i, err)
		}
	}
	eeSetupNs := float64(nowNs()-start) / float64(eers)

	// Phase 3: renewal waves over the full population via RenewBatch. The
	// clock advances 4 s per wave, inside the 16 s EER lifetime.
	items := make([]cserv.EERRenewal, eers)
	results := make([]cserv.RenewResult, eers)
	for i := range items {
		items[i] = cserv.EERRenewal{EER: eerID(i), Seg: segID(i % segrs), BwKbps: 100}
	}
	var renewErr error
	start = nowNs()
	for w := 0; w < waves; w++ {
		now += 4
		for i := range items {
			items[i].ExpT = now + 16
		}
		cp.RenewBatch(items, results)
	}
	renewNs := float64(nowNs()-start) / float64(waves*eers)
	for i := range results {
		if results[i].Err != nil {
			renewErr = fmt.Errorf("renewal %d: %w", i, results[i].Err)
			break
		}
	}
	if renewErr != nil {
		return CPlaneRow{}, renewErr
	}

	// Phase 4: teardown, EERs then SegRs.
	start = nowNs()
	for i := 0; i < eers; i++ {
		cp.TeardownEER(eerID(i), segID(i%segrs))
	}
	for i := 0; i < segrs; i++ {
		if err := cp.TeardownSegR(segID(i)); err != nil {
			return CPlaneRow{}, fmt.Errorf("teardown SegR %d: %w", i, err)
		}
	}
	teardownNs := float64(nowNs()-start) / float64(eers+segrs)

	ct := cp.Counts()
	if ct.SegRs != 0 || ct.EERs != 0 {
		return CPlaneRow{}, fmt.Errorf("engine not drained: %d SegRs, %d EERs", ct.SegRs, ct.EERs)
	}
	row := CPlaneRow{
		Shards: shards, EERs: eers, SegRs: segrs,
		SegSetupNs: segSetupNs, EESetupNs: eeSetupNs,
		RenewNs: renewNs, TeardownNs: teardownNs,
		Rejected: ct.Rejects,
	}
	if renewNs > 0 {
		row.RenewPerSec = 1e9 / renewNs
	}
	return row, nil
}

// FormatCPlane renders the sweep as a markdown table.
func FormatCPlane(rows []CPlaneRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "control-plane scaling: per-op latency through setup/renew/teardown churn\n")
	fmt.Fprintf(&b, "| shards | SegRs | EERs | SegR setup µs | EER setup µs | renew µs | teardown µs | renew/s |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %d | %d | %d | %.2f | %.2f | %.2f | %.2f | %.0f |\n",
			r.Shards, r.SegRs, r.EERs,
			r.SegSetupNs/1e3, r.EESetupNs/1e3, r.RenewNs/1e3, r.TeardownNs/1e3,
			r.RenewPerSec)
	}
	return b.String()
}
