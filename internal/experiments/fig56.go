package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"colibri/internal/cryptoutil"
	"colibri/internal/gateway"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/router"
	"colibri/internal/topology"
	"colibri/internal/workload"
)

// Fig5Row is one data point of Fig. 5: single-core gateway forwarding
// performance as a function of path length and installed reservations.
type Fig5Row struct {
	Hops         int
	Reservations int
	Mpps         float64
}

// Fig5/6 default sweeps, as in the paper.
var (
	Fig5Hops         = []int{2, 4, 8, 16}
	Fig5Reservations = []int{1, 1 << 10, 1 << 15, 1 << 17, 1 << 20}
	Fig6Workers      = []int{1, 2, 4, 8, 16}
)

// RunFig5 measures gateway packet construction (lookup, monitoring, Ts,
// HVFs, serialization) with zero-payload packets and uniformly random
// reservation IDs — the paper's worst-case arrival pattern — for the given
// measurement duration per point.
func RunFig5(hops, reservations []int, perPoint time.Duration) []Fig5Row {
	if len(hops) == 0 {
		hops = Fig5Hops
	}
	if len(reservations) == 0 {
		reservations = Fig5Reservations
	}
	if perPoint == 0 {
		perPoint = 300 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(5))
	var rows []Fig5Row
	for _, h := range hops {
		for _, r := range reservations {
			gw, _ := workload.GatewayPopulation(r, h, rng)
			if telemetryReg != nil {
				gw.EnableTelemetry(telemetryReg)
			}
			ids := workload.RandomResIDs(1<<16, r, rng)
			w := gw.NewWorker()
			out := make([]byte, 2048)
			// Warm up and clear garbage left by population building, so the
			// timed loop does not pay earlier allocations' collection.
			runtime.GC()
			for i := 0; i < 1000; i++ {
				mustBuild(w.Build(ids[i%len(ids)], nil, out, workload.EpochNs+int64(i)))
			}
			ops := 0
			now := workload.EpochNs
			start := nowNs()
			for nowNs()-start < perPoint.Nanoseconds() {
				for k := 0; k < 512; k++ {
					now++
					mustBuild(w.Build(ids[(ops+k)%len(ids)], nil, out, now))
				}
				ops += 512
			}
			elapsed := float64(nowNs()-start) / 1e9
			rows = append(rows, Fig5Row{Hops: h, Reservations: r, Mpps: float64(ops) / elapsed / 1e6})
		}
	}
	return rows
}

func mustBuild(n int, err error) {
	if err != nil {
		panic(err)
	}
}

// FormatFig5 renders the rows as the paper's series (one line per r).
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — gateway forwarding performance [Mpps], one worker\n")
	fmt.Fprintf(&b, "%-8s %-14s %-10s\n", "hops", "reservations", "Mpps")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %-14d %-10.3f\n", r.Hops, r.Reservations, r.Mpps)
	}
	return b.String()
}

// Fig6Row is one data point of Fig. 6: gateway or border-router throughput
// versus the number of parallel workers. On a multi-core machine workers
// map to cores; on this reproduction's host the worker sweep measures
// scalability of the shared-state design (lock behaviour), with per-core
// linearity documented in EXPERIMENTS.md.
type Fig6Row struct {
	Component    string // "gateway" or "border-router"
	Workers      int
	Reservations int // gateway only
	Mpps         float64
}

// RunFig6 measures the gateway (4-hop paths, several r) and the stateless
// border router with 1–16 parallel workers.
func RunFig6(workers []int, gwReservations []int, perPoint time.Duration) []Fig6Row {
	if len(workers) == 0 {
		workers = Fig6Workers
	}
	if len(gwReservations) == 0 {
		gwReservations = []int{1, 1 << 15, 1 << 20}
	}
	if perPoint == 0 {
		perPoint = 300 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(6))
	var rows []Fig6Row

	// Border router: stateless verification of last-hop packets (delivery
	// does not mutate the buffer, so one packet set serves all workers).
	gw, routers := workload.GatewayPopulation(1024, 4, rng)
	last := routers[3]
	pkts := buildLastHopPackets(gw, 1024, 4, 4096)
	for _, nw := range workers {
		mpps := parallelRate(nw, perPoint, func() func() {
			w := last.NewWorker()
			i := 0
			return func() {
				buf := pkts[i%len(pkts)]
				if _, err := w.Process(buf, workload.EpochNs); err != nil {
					panic(err)
				}
				i++
			}
		})
		rows = append(rows, Fig6Row{Component: "border-router", Workers: nw, Mpps: mpps})
	}

	// Gateway: 4-hop paths, sweep r.
	for _, r := range gwReservations {
		gw, _ := workload.GatewayPopulation(r, 4, rng)
		if telemetryReg != nil {
			gw.EnableTelemetry(telemetryReg)
		}
		ids := workload.RandomResIDs(1<<16, r, rng)
		for _, nw := range workers {
			var seq atomic.Int64
			mpps := parallelRate(nw, perPoint, func() func() {
				w := gw.NewWorker()
				out := make([]byte, 2048)
				i := int(seq.Add(1)) * 7919
				return func() {
					now := workload.EpochNs + int64(i)
					mustBuild(w.Build(ids[i%len(ids)], nil, out, now))
					i++
				}
			})
			rows = append(rows, Fig6Row{Component: "gateway", Workers: nw, Reservations: r, Mpps: mpps})
		}
	}
	return rows
}

// buildLastHopPackets builds n serialized packets over the gateway's
// reservations, advanced to their final hop (the border router there
// delivers without mutating the buffer, so workers can share the set).
func buildLastHopPackets(gw *gateway.Gateway, r, hops, n int) [][]byte {
	w := gw.NewWorker()
	pkts := make([][]byte, n)
	for i := range pkts {
		buf := make([]byte, 512)
		sz, err := w.Build(uint32(1+i%r), nil, buf, workload.EpochNs+int64(i))
		if err != nil {
			panic(err)
		}
		b := buf[:sz]
		packet.SetCurrHopInPlace(b, uint8(hops-1))
		pkts[i] = b
	}
	return pkts
}

// parallelRate runs nw workers for roughly d each and returns aggregate
// Mops.
func parallelRate(nw int, d time.Duration, mkWorker func() func()) float64 {
	runtime.GC()
	var total atomic.Int64
	var wg sync.WaitGroup
	start := nowNs()
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := mkWorker()
			ops := 0
			for nowNs()-start < d.Nanoseconds() {
				for k := 0; k < 256; k++ {
					op()
				}
				ops += 256
			}
			total.Add(int64(ops))
		}()
	}
	wg.Wait()
	elapsed := float64(nowNs()-start) / 1e9
	return float64(total.Load()) / elapsed / 1e6
}

// Fig6ShardedRow is one data point of the RSS-sharded data-plane sweep: the
// batched multi-core pipeline (router.Sharded / gateway.Sharded) at a given
// worker count. PerWorker is Mpps normalized by min(workers, GOMAXPROCS) —
// the effective concurrency — so a flat PerWorker series is the scaling
// claim on a multi-core host, while on a single-CPU host it measures
// fan-out overhead only.
type Fig6ShardedRow struct {
	Component string // "gateway" or "border-router"
	Workers   int
	Mpps      float64
	PerWorker float64
}

// Fig6ShardedWorkers is the default worker sweep of the sharded pipeline
// (overridable from colibri-bench with -workers).
var Fig6ShardedWorkers = []int{1, 2, 4, 8}

// RunFig6Sharded measures the RSS-sharded batched pipelines — border-router
// validation via router.Sharded.ProcessBatch and gateway construction via
// gateway.Sharded.BuildBatch — across worker counts. Shards is fixed at 8
// so flow placement (and every per-flow decision) is identical at every
// sweep point; only the degree of parallelism varies.
func RunFig6Sharded(workers []int, perPoint time.Duration) []Fig6ShardedRow {
	if len(workers) == 0 {
		workers = Fig6ShardedWorkers
	}
	if perPoint == 0 {
		perPoint = 300 * time.Millisecond
	}
	const r, hops, shards, batch = 1 << 10, 4, 8, 256
	rng := rand.New(rand.NewSource(6))
	var rows []Fig6ShardedRow

	normalize := func(mpps float64, nw int) float64 {
		eff := nw
		if p := runtime.GOMAXPROCS(0); eff > p {
			eff = p
		}
		return mpps / float64(eff)
	}

	// Border router: one shared last-hop packet set (validation does not
	// mutate the buffer), a fresh sharded router per worker count.
	gw, _, secrets := workload.GatewayPopulationWithSecrets(r, hops, rng)
	pkts := buildLastHopPackets(gw, r, hops, 4096)
	for _, nw := range workers {
		sh := router.NewSharded(router.ShardedConfig{
			Router: router.Config{
				IA:        topology.MustIA(1, hops),
				Secret:    secrets[hops-1],
				Telemetry: telemetryReg,
			},
			Shards:  shards,
			Workers: nw,
		})
		verdicts := make([]router.BatchVerdict, batch)
		runtime.GC()
		for i := 0; i+batch <= len(pkts); i += batch { // grow the per-shard scratch
			sh.ProcessBatch(pkts[i:i+batch], verdicts, workload.EpochNs)
		}
		ops := 0
		start := nowNs()
		for nowNs()-start < perPoint.Nanoseconds() {
			off := ops % (len(pkts) - batch + 1)
			if n := sh.ProcessBatch(pkts[off:off+batch], verdicts, workload.EpochNs); n != batch {
				panic(verdicts[0].Err)
			}
			ops += batch
		}
		elapsed := float64(nowNs()-start) / 1e9
		mpps := float64(ops) / elapsed / 1e6
		rows = append(rows, Fig6ShardedRow{Component: "border-router", Workers: nw, Mpps: mpps, PerWorker: normalize(mpps, nw)})
		sh.Close()
	}

	// Gateway: fresh sharded gateway per worker count, 4-hop paths.
	for _, nw := range workers {
		sg := gateway.NewSharded(topology.MustIA(1, 11), shards, nw)
		if telemetryReg != nil {
			sg.EnableTelemetry(telemetryReg)
		}
		installShardedPopulation(sg, r, hops, rng)
		ids := workload.RandomResIDs(1<<16, r, rng)
		reqs := make([]gateway.BuildReq, batch)
		outs := make([]gateway.BuildRes, batch)
		for i := range reqs {
			reqs[i].Out = make([]byte, 2048)
		}
		fill := func(base int) {
			for j := range reqs {
				reqs[j].ResID = ids[(base+j)%len(ids)]
			}
		}
		runtime.GC()
		for base := 0; base < len(ids); base += batch { // grow the per-shard scratch
			fill(base)
			sg.BuildBatch(reqs, outs, workload.EpochNs)
		}
		ops := 0
		now := workload.EpochNs
		start := nowNs()
		for nowNs()-start < perPoint.Nanoseconds() {
			now++
			fill(ops)
			if n := sg.BuildBatch(reqs, outs, now); n != batch {
				panic(outs[0].Err)
			}
			ops += batch
		}
		elapsed := float64(nowNs()-start) / 1e9
		mpps := float64(ops) / elapsed / 1e6
		rows = append(rows, Fig6ShardedRow{Component: "gateway", Workers: nw, Mpps: mpps, PerWorker: normalize(mpps, nw)})
		sg.Close()
	}
	return rows
}

// installShardedPopulation fills a sharded gateway with r reservations over
// hops-long paths (arbitrary hop authenticators: construction-only fixtures
// never verify downstream).
func installShardedPopulation(sg *gateway.Sharded, r, hops int, rng *rand.Rand) {
	path := make([]packet.HopField, hops)
	for i := range path {
		path[i] = packet.HopField{In: topology.IfID(2 * i), Eg: topology.IfID(2*i + 1)}
	}
	auths := make([]cryptoutil.Key, hops)
	for i := range auths {
		_, _ = rng.Read(auths[i][:])
	}
	for id := 1; id <= r; id++ {
		res := packet.ResInfo{
			SrcAS:  topology.MustIA(1, 11),
			ResID:  uint32(id),
			BwKbps: 1 << 30,
			ExpT:   workload.Epoch + reservation.EERLifetimeSeconds,
			Ver:    1,
		}
		if err := sg.Install(res, packet.EERInfo{SrcHost: 1, DstHost: 2}, path, auths); err != nil {
			panic(err)
		}
	}
}

// FormatFig6Sharded renders the sharded-pipeline rows.
func FormatFig6Sharded(rows []Fig6ShardedRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 (sharded) — RSS multi-core pipeline [Mpps] vs. workers, 8 shards\n")
	fmt.Fprintf(&b, "%-16s %-9s %-10s %-12s\n", "component", "workers", "Mpps", "Mpps/worker")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-9d %-10.3f %-12.3f\n", r.Component, r.Workers, r.Mpps, r.PerWorker)
	}
	return b.String()
}

// FormatFig6 renders the rows.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 — throughput [Mpps] vs. parallel workers\n")
	fmt.Fprintf(&b, "%-16s %-9s %-14s %-10s\n", "component", "workers", "reservations", "Mpps")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-9d %-14d %-10.3f\n", r.Component, r.Workers, r.Reservations, r.Mpps)
	}
	return b.String()
}
