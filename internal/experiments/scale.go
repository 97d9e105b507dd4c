package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"colibri/internal/netsim"
	"colibri/internal/qos"
	"colibri/internal/topology"
	"colibri/internal/workload"
)

// ScaleConfig parameterizes the thousand-AS scale experiment: a generated
// hierarchical topology, one netsim shard per AS, seeded end-to-end flows
// routed hop-by-hop over shortest paths. The zero value is filled in by
// defaults (100 ASes, 2 flows per AS, 50 virtual ms).
type ScaleConfig struct {
	// ASes is the approximate topology size; the generator rounds to whole
	// ISDs of 50 ASes (2 cores, 8 providers, 40 leaves).
	ASes int
	// Flows is the number of end-to-end flows (default 2 per AS).
	Flows int
	// RateKbps and PktBytes shape each flow's offered load.
	RateKbps uint64
	PktBytes int
	// DurationNs is the virtual-time length of the run.
	DurationNs int64
	// Seed drives topology choice, flow endpoints, classes, and faults.
	Seed uint64
	// Loss and JitterNs, when non-zero, attach a fault plan to every
	// inter-AS link.
	Loss     float64
	JitterNs int64
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.ASes <= 0 {
		c.ASes = 100
	}
	if c.Flows <= 0 {
		c.Flows = 2 * c.ASes
	}
	if c.RateKbps == 0 {
		c.RateKbps = 8_000
	}
	if c.PktBytes == 0 {
		c.PktBytes = 500
	}
	if c.DurationNs == 0 {
		c.DurationNs = 50e6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// scaleSpec sizes the topology generator to roughly n ASes.
func scaleSpec(n int, seed uint64) topology.GenSpec {
	isds := (n + 49) / 50
	if isds < 1 {
		isds = 1
	}
	return topology.GenSpec{
		ISDs:            isds,
		CoresPerISD:     2,
		ProvidersPerISD: 8,
		LeavesPerISD:    40,
		Seed:            int64(seed),
	}
}

// BuildScale constructs the scale scenario into s — one shard per AS, one
// port per directed inter-AS adjacency (capacity and latency from the
// topology link), a shortest-path forwarding node per AS, and a seeded
// source per flow — and returns a function reporting the totals delivered
// to flow destinations (valid after the run).
func BuildScale(cfg ScaleConfig, s *netsim.Sim) (delivered func() (pkts, bytes, drops uint64)) {
	cfg = cfg.withDefaults()
	topo := topology.Generate(scaleSpec(cfg.ASes, cfg.Seed))
	rt := workload.BuildRoutes(topo)
	flows := workload.ScaleFlows(topo, cfg.Flows, cfg.Seed+1)
	n := len(rt.IAs)

	shards := make([]*netsim.Shard, n)
	shards[0] = s.Root()
	for i := 1; i < n; i++ {
		shards[i] = s.NewShard()
	}

	// One port per directed adjacency; towards[i] pairs (neighbor index,
	// port) — linear scan beats a map for the handful of neighbors an AS
	// has, and stays allocation-free per packet.
	type hop struct {
		nbr  int32
		port *netsim.Port
	}
	towards := make([][]hop, n)
	sinkPkts := make([]uint64, n)
	sinkBytes := make([]uint64, n)
	lost := make([]uint64, n) // packets with no route (should stay 0)
	routers := make([]netsim.Node, n)
	var ports []*netsim.Port

	for i := 0; i < n; i++ {
		i := int32(i)
		routers[i] = netsim.NodeFunc(func(pkt *netsim.Packet, _ int) {
			dst := pkt.Meta.(int32)
			if dst == i {
				sinkPkts[i]++
				sinkBytes[i] += uint64(pkt.WireSize)
				return
			}
			next := rt.Next[dst][i]
			if next < 0 {
				lost[i]++
				return
			}
			for _, h := range towards[i] {
				if h.nbr == next {
					h.port.Send(pkt)
					return
				}
			}
			lost[i]++
		})
	}

	for i, ia := range rt.IAs {
		as := topo.AS(ia)
		seen := make(map[int32]bool)
		for _, ifid := range as.SortedIfIDs() {
			intf := as.Interface(ifid)
			j := rt.Index[intf.Neighbor]
			if seen[j] {
				continue // parallel links: first (lowest-ifid) one carries
			}
			seen[j] = true
			p := netsim.NewShardPort(shards[i], fmt.Sprintf("as%d.if%d", i, ifid),
				intf.Link.CapacityKbps, intf.Link.LatencyNs, qos.StrictPriority,
				routers[j], shards[j], 0)
			if cfg.Loss > 0 || cfg.JitterNs > 0 {
				p.SetFaults(netsim.NewFaultPlan(cfg.Seed ^ uint64(i)<<20 ^ uint64(j)).
					SetLoss(cfg.Loss).SetJitter(cfg.JitterNs))
			}
			towards[i] = append(towards[i], hop{nbr: j, port: p})
			ports = append(ports, p)
		}
	}

	for fi, f := range flows {
		srcIdx := rt.Index[f.Src]
		dstIdx := rt.Index[f.Dst]
		rng := netsim.NewRand(cfg.Seed*2654435761 + uint64(fi))
		src := &netsim.Source{
			Sim:      s,
			Dst:      routers[srcIdx],
			Shard:    shards[srcIdx],
			RateKbps: cfg.RateKbps,
			PktBytes: cfg.PktBytes,
			StopNs:   cfg.DurationNs,
			Make: func() *netsim.Packet {
				return &netsim.Packet{
					WireSize: cfg.PktBytes,
					Class:    qos.Class(rng.Uint64() % uint64(qos.NumClasses)),
					Meta:     dstIdx,
				}
			},
		}
		// Stagger starts inside the first millisecond, seeded.
		src.Start(1 + int64(rng.Uint64()%1_000_000))
	}

	return func() (pkts, bytes, drops uint64) {
		for i := 0; i < n; i++ {
			pkts += sinkPkts[i]
			bytes += sinkBytes[i]
			drops += lost[i]
		}
		for _, p := range ports {
			for _, d := range p.Drops() {
				drops += d
			}
		}
		return
	}
}

// ScaleRow is one scale run: the simulated work and the wall-clock
// throughput Sim.Run reached on it.
type ScaleRow struct {
	ASes, Shards, Flows int
	// Procs is GOMAXPROCS during the run: Run drains the safe windows on
	// min(Procs, Shards) workers.
	Procs  int
	Events uint64
	Pkts   uint64
	WallNs int64
	// EventsPerSec and Mpps are wall-clock throughputs.
	EventsPerSec float64
	Mpps         float64
}

// RunScale simulates the configured topology once, at the current
// GOMAXPROCS. Events and packets are exactly reproducible and do not depend
// on GOMAXPROCS; wall time is read through the package clock seam, so tests
// can make the figures deterministic.
func RunScale(cfg ScaleConfig) ScaleRow {
	cfg = cfg.withDefaults()
	s := netsim.NewSim()
	if telemetryReg != nil {
		s.SetTelemetry(telemetryReg)
	}
	delivered := BuildScale(cfg, s)
	start := nowNs()
	s.Run(0)
	wall := max(nowNs()-start, 1)
	pkts, _, _ := delivered()
	return ScaleRow{
		ASes:         cfg.ASes,
		Shards:       s.NumShards(),
		Flows:        cfg.Flows,
		Procs:        runtime.GOMAXPROCS(0),
		Events:       s.Executed(),
		Pkts:         pkts,
		WallNs:       wall,
		EventsPerSec: float64(s.Executed()) / float64(wall) * 1e9,
		Mpps:         float64(pkts) * 1e3 / float64(wall),
	}
}

// FormatScale renders scale runs as a markdown table.
func FormatScale(rows []ScaleRow) string {
	var b strings.Builder
	fmt.Fprint(&b, "| ASes | shards | flows | GOMAXPROCS | events | pkts delivered | wall ms | events/s | Mpps |\n")
	fmt.Fprint(&b, "|------|--------|-------|------------|--------|----------------|---------|----------|------|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %d | %d | %.1f | %.2fM | %.3f |\n",
			r.ASes, r.Shards, r.Flows, r.Procs, r.Events, r.Pkts,
			float64(r.WallNs)/1e6, r.EventsPerSec/1e6, r.Mpps)
	}
	return b.String()
}
