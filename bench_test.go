// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each sub-benchmark name encodes the paper's sweep parameters, so
//
//	go test -bench=Fig3 -benchmem
//
// produces the series of the corresponding figure. cmd/colibri-bench runs
// the same experiments with wall-clock measurement and prints them in the
// paper's table shapes; EXPERIMENTS.md records paper-vs-measured values.
package colibri_test

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"testing"
	"time"

	"colibri/internal/admission"
	"colibri/internal/cryptoutil"
	"colibri/internal/cserv"
	"colibri/internal/experiments"
	"colibri/internal/gateway"
	"colibri/internal/netsim"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/router"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
	"colibri/internal/workload"
)

// reportMpps attaches the paper's headline unit (million packets per second)
// to a benchmark, from the total packet count over the timed section.
func reportMpps(b *testing.B, pkts int64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(pkts)/s/1e6, "Mpps")
	}
}

// BenchmarkFig3SegRAdmission: SegR admission processing time vs. the number
// of existing SegRs on the same interface pair and the same-source ratio
// (paper: flat lines well under 1250 µs — constant time).
func BenchmarkFig3SegRAdmission(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 2000, 10_000} {
		for _, ratio := range []float64{0, 0.1, 0.5, 0.9} {
			b.Run(fmt.Sprintf("existing=%d/ratio=%.1f", n, ratio), func(b *testing.B) {
				_, st := workload.TransitAS(2, 100_000_000)
				src := topology.MustIA(1, 500)
				if err := workload.PopulateSegRs(st, n, ratio, src, 1, 2, rng); err != nil {
					b.Fatal(err)
				}
				req := admission.Request{
					ID:  reservation.ID{SrcAS: src, Num: 1 << 24},
					Src: src, In: 1, Eg: 2, MaxKbps: 50,
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := st.AdmitSegR(req); err != nil {
						b.Fatal(err)
					}
					st.Release(req.ID)
				}
			})
		}
	}
}

// BenchmarkFig4EERAdmission: EER admission at a transit AS — the engine calls
// a CServ handler makes per hop — vs. existing EERs over the same SegR and
// SegRs with the same source (paper: flat, >2000 admissions per second per
// core).
func BenchmarkFig4EERAdmission(b *testing.B) {
	for _, s := range []int{1, 5000, 10_000} {
		for _, n := range []int{10, 1000, 100_000} {
			b.Run(fmt.Sprintf("eers=%d/s=%d", n, s), func(b *testing.B) {
				cp, segID, err := workload.EERPopulation(s, n)
				if err != nil {
					b.Fatal(err)
				}
				id := reservation.ID{SrcAS: topology.MustIA(1, 77), Num: 1 << 24}
				segs := []reservation.ID{segID}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := cp.SetupEERPath(id, segs, 1, workload.Epoch+16, 1); err != nil {
						b.Fatal(err)
					}
					cp.TeardownEERPath(id, segs)
				}
			})
		}
	}
}

// BenchmarkFig5Gateway: gateway packet construction vs. path length and
// installed reservations, single worker, random reservation IDs (paper:
// 0.4–2.5 Mpps depending on the point; decreasing in both parameters).
func BenchmarkFig5Gateway(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, hops := range []int{2, 4, 8, 16} {
		for _, r := range []int{1, 1 << 10, 1 << 15, 1 << 17, 1 << 20} {
			b.Run(fmt.Sprintf("hops=%d/r=%d", hops, r), func(b *testing.B) {
				gw, _ := workload.GatewayPopulation(r, hops, rng)
				ids := workload.RandomResIDs(1<<16, r, rng)
				w := gw.NewWorker()
				out := make([]byte, 2048)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.Build(ids[i%len(ids)], nil, out, workload.EpochNs+int64(i)); err != nil {
						b.Fatal(err)
					}
				}
				reportMpps(b, int64(b.N))
			})
		}
	}
}

// BenchmarkFig6BorderRouter: stateless border-router validation (the other
// curve of Fig. 6; paper: 2.15 Mpps per core, 34.4 Mpps on 16 cores). The
// parallel variant sweeps workers via -cpu, e.g. -cpu=1,2,4.
func BenchmarkFig6BorderRouter(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	gw, routers := workload.GatewayPopulation(1024, 4, rng)
	w4 := gw.NewWorker()
	pkts := make([][]byte, 4096)
	for i := range pkts {
		buf := make([]byte, 512)
		sz, err := w4.Build(uint32(1+i%1024), nil, buf, workload.EpochNs+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		pkt := buf[:sz]
		packet.SetCurrHopInPlace(pkt, 3)
		pkts[i] = pkt
	}
	last := routers[3]
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		w := last.NewWorker()
		i := 0
		for pb.Next() {
			if _, err := w.Process(pkts[i%len(pkts)], workload.EpochNs); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	reportMpps(b, int64(b.N))
}

// BenchmarkFig6GatewayParallel: gateway throughput with parallel workers
// (sweep via -cpu), 4-hop paths, 2^15 reservations as in the paper's
// "realistic parameters" point.
func BenchmarkFig6GatewayParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	gw, _ := workload.GatewayPopulation(1<<15, 4, rng)
	ids := workload.RandomResIDs(1<<16, 1<<15, rng)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		w := gw.NewWorker()
		out := make([]byte, 2048)
		i := rng.Intn(1 << 16)
		for pb.Next() {
			if _, err := w.Build(ids[i%len(ids)], nil, out, workload.EpochNs+int64(i)); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	reportMpps(b, int64(b.N))
}

// BenchmarkFig6GatewayBatch: the batched construction pipeline vs. batch
// size, single worker, 2^10 reservations over 4-hop paths. batch=1 is what
// the single-packet Build runs; larger batches amortize the lookup lock,
// the token-bucket pass and the timestamp reservation. One iteration
// builds one batch; the Mpps metric is per-packet and directly comparable
// across batch sizes.
func BenchmarkFig6GatewayBatch(b *testing.B) {
	const r, hops = 1 << 10, 4
	for _, batch := range []int{1, 8, 32, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			ids := workload.RandomResIDs(1<<16, r, rng)
			gw, _ := workload.GatewayPopulation(r, hops, rng)
			w := gw.NewWorker()
			reqs := make([]gateway.BuildReq, batch)
			res := make([]gateway.BuildRes, batch)
			for i := range reqs {
				reqs[i].Out = make([]byte, 2048)
			}
			fill := func(base int) {
				for j := range reqs {
					reqs[j].ResID = ids[(base+j)%len(ids)]
				}
			}
			// One untimed batch grows the worker's scratch.
			fill(0)
			w.BuildBatch(reqs, res, workload.EpochNs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fill(i * batch)
				if n := w.BuildBatch(reqs, res, workload.EpochNs+int64(i)); n != batch {
					b.Fatalf("built %d/%d: %v", n, batch, res[0].Err)
				}
			}
			reportMpps(b, int64(b.N)*int64(batch))
		})
	}
}

// BenchmarkFig6BorderRouterBatch: batched stateless validation vs. batch
// size over the same population as BenchmarkFig6BorderRouter. batch=1 is
// what the single-packet Process runs; larger batches amortize the counter
// flushes.
func BenchmarkFig6BorderRouterBatch(b *testing.B) {
	const r, hops = 1 << 10, 4
	for _, batch := range []int{1, 8, 32, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			gw, routers := workload.GatewayPopulation(r, hops, rng)
			gww := gw.NewWorker()
			pkts := make([][]byte, 4096)
			for i := range pkts {
				buf := make([]byte, 512)
				sz, err := gww.Build(uint32(1+i%r), nil, buf, workload.EpochNs+int64(i))
				if err != nil {
					b.Fatal(err)
				}
				pkts[i] = buf[:sz]
				packet.SetCurrHopInPlace(pkts[i], hops-1)
			}
			w := routers[hops-1].NewWorker()
			verdicts := make([]router.BatchVerdict, batch)
			// One untimed batch grows the worker's decode scratch.
			w.ProcessBatch(pkts[:batch], verdicts, workload.EpochNs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i * batch) % (len(pkts) - batch + 1)
				if n := w.ProcessBatch(pkts[off:off+batch], verdicts, workload.EpochNs); n != batch {
					b.Fatalf("passed %d/%d: %v", n, batch, verdicts[0].Err)
				}
			}
			reportMpps(b, int64(b.N)*int64(batch))
		})
	}
}

// reportMppsPerWorker adds the per-worker-normalized rate: aggregate Mpps
// divided by the number of workers that can actually run concurrently
// (min(workers, GOMAXPROCS) — on a 1-CPU host every sweep point serializes
// onto one core, so the normalized series measures fan-out overhead there,
// not scaling).
func reportMppsPerWorker(b *testing.B, pkts int64, workers int) {
	eff := workers
	if p := runtime.GOMAXPROCS(0); eff > p {
		eff = p
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(pkts)/s/1e6/float64(eff), "Mpps/worker")
	}
}

// BenchmarkFig6Parallel: the RSS-sharded data plane — border-router
// validation (router.Sharded.ProcessBatch) and gateway construction
// (gateway.Sharded.BuildBatch) fanned over per-core shards, workers ∈
// {1,2,4,8}. Shards is fixed at 8 so flow placement — and therefore every
// per-flow decision — is identical across the sweep; only the degree of
// parallelism varies. Mpps is the aggregate rate; Mpps/worker is the
// normalized series whose flatness is the scaling claim (meaningful only
// where GOMAXPROCS ≥ workers). The scatter/gather scratch is grown before
// timing and the timed loop must be allocation-free.
func BenchmarkFig6Parallel(b *testing.B) {
	const r, hops, shards, batch = 1 << 10, 4, 8, 256
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("router/workers=%d", workers), func(b *testing.B) {
			rng := rand.New(rand.NewSource(16))
			gw, _, secrets := workload.GatewayPopulationWithSecrets(r, hops, rng)
			w := gw.NewWorker()
			pkts := make([][]byte, 4096)
			for i := range pkts {
				buf := make([]byte, 512)
				sz, err := w.Build(uint32(1+i%r), nil, buf, workload.EpochNs+int64(i))
				if err != nil {
					b.Fatal(err)
				}
				pkt := buf[:sz]
				packet.SetCurrHopInPlace(pkt, hops-1)
				pkts[i] = pkt
			}
			sh := router.NewSharded(router.ShardedConfig{
				Router: router.Config{
					IA:     topology.MustIA(1, hops),
					Secret: secrets[hops-1],
				},
				Shards:  shards,
				Workers: workers,
			})
			defer sh.Close()
			verdicts := make([]router.BatchVerdict, batch)
			// Grow the scatter/gather scratch outside the timed loop.
			for i := 0; i+batch <= len(pkts); i += batch {
				sh.ProcessBatch(pkts[i:i+batch], verdicts, workload.EpochNs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i * batch) % (len(pkts) - batch + 1)
				if n := sh.ProcessBatch(pkts[off:off+batch], verdicts, workload.EpochNs); n != batch {
					b.Fatalf("passed %d/%d: %v", n, batch, verdicts[0].Err)
				}
			}
			total := int64(b.N) * int64(batch)
			reportMpps(b, total)
			reportMppsPerWorker(b, total, workers)
		})
		b.Run(fmt.Sprintf("gateway/workers=%d", workers), func(b *testing.B) {
			rng := rand.New(rand.NewSource(17))
			sg := gateway.NewSharded(topology.MustIA(1, 11), shards, workers)
			defer sg.Close()
			path := make([]packet.HopField, hops)
			for i := range path {
				path[i] = packet.HopField{In: topology.IfID(2 * i), Eg: topology.IfID(2*i + 1)}
			}
			auths := make([]cryptoutil.Key, hops)
			for i := range auths {
				rng.Read(auths[i][:])
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
					b.Fatal(err)
				}
			}
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
			for base := 0; base < len(ids); base += batch {
				fill(base)
				sg.BuildBatch(reqs, outs, workload.EpochNs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fill(i * batch)
				if n := sg.BuildBatch(reqs, outs, workload.EpochNs+int64(i)); n != batch {
					b.Fatalf("built %d/%d: %v", n, batch, outs[0].Err)
				}
			}
			total := int64(b.N) * int64(batch)
			reportMpps(b, total)
			reportMppsPerWorker(b, total, workers)
		})
	}
}

// BenchmarkTable2DataPlaneProtection runs the full three-phase simulated
// measurement of Table 2 (dominated by the discrete-event simulation, not
// per-op cost; the per-phase Gbps rows are what matters — see
// TestTable2Protection and cmd/colibri-bench).
func BenchmarkTable2DataPlaneProtection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable2()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAppendixEPayloadSize: gateway construction for growing payload
// sizes (paper: forwarding rate independent of payload size).
func BenchmarkAppendixEPayloadSize(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	gw, _ := workload.GatewayPopulation(1<<15, 4, rng)
	ids := workload.RandomResIDs(1<<16, 1<<15, rng)
	for _, p := range []int{0, 100, 500, 1000, 1500} {
		b.Run(fmt.Sprintf("payload=%d", p), func(b *testing.B) {
			payload := make([]byte, p)
			w := gw.NewWorker()
			out := make([]byte, 4096)
			// MB/s scales with payload while ns/op stays flat — the
			// appendix's "rate independent of payload size" claim.
			b.SetBytes(int64(packet.DataLen(4, p)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Build(ids[i%len(ids)], payload, out, workload.EpochNs+int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTelemetryOverhead compares the data-plane hot paths with and
// without telemetry instruments attached: the border router's Process
// (per-packet counters + drop tracer when Config.Telemetry is set) and the
// gateway's Build (per-phase wall-clock histograms after EnableTelemetry).
// The off/on delta is the observability tax recorded in EXPERIMENTS.md.
func BenchmarkTelemetryOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	gwOff, routers, secrets := workload.GatewayPopulationWithSecrets(1024, 4, rng)
	ids := workload.RandomResIDs(1<<16, 1024, rng)

	// Last-hop packets: delivery does not mutate the buffer.
	w4 := gwOff.NewWorker()
	pkts := make([][]byte, 4096)
	for i := range pkts {
		buf := make([]byte, 512)
		sz, err := w4.Build(ids[i%len(ids)], nil, buf, workload.EpochNs+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		pkt := buf[:sz]
		packet.SetCurrHopInPlace(pkt, 3)
		pkts[i] = pkt
	}

	routerBench := func(rt *router.Router) func(b *testing.B) {
		return func(b *testing.B) {
			w := rt.NewWorker()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Process(pkts[i%len(pkts)], workload.EpochNs); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("router/off", routerBench(routers[3]))
	b.Run("router/on", routerBench(router.New(router.Config{
		IA:        topology.MustIA(1, 4),
		Secret:    secrets[3],
		Telemetry: telemetry.NewRegistry("bench"),
	})))

	b.Run("gateway/off", func(b *testing.B) {
		w := gwOff.NewWorker()
		out := make([]byte, 2048)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Build(ids[i%len(ids)], nil, out, workload.EpochNs+int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gateway/on", func(b *testing.B) {
		gwOn, _, _ := workload.GatewayPopulationWithSecrets(1024, 4, rng)
		gwOn.EnableTelemetry(telemetry.NewRegistry("bench"))
		w := gwOn.NewWorker()
		out := make([]byte, 2048)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Build(ids[i%len(ids)], nil, out, workload.EpochNs+int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCServThroughput: the §6.2 headline claims — a single core
// processes >800 SegReqs/s and >2000 EEReqs/s. The numbers here are the
// admission-and-store path; the full handler (with DRKey verification)
// is benchmarked in internal/cserv.
func BenchmarkCServThroughput(b *testing.B) {
	b.Run("segr", func(b *testing.B) {
		_, st := workload.TransitAS(2, 100_000_000)
		src := topology.MustIA(1, 500)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := admission.Request{
				ID:  reservation.ID{SrcAS: src, Num: uint32(i + 1)},
				Src: src, In: 1, Eg: 2, MaxKbps: 1,
			}
			if _, err := st.AdmitSegR(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eer", func(b *testing.B) {
		cp, segID, err := workload.EERPopulation(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		segs := []reservation.ID{segID}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := reservation.ID{SrcAS: topology.MustIA(1, 77), Num: uint32(i + 1)}
			if err := cp.SetupEERPath(id, segs, 1, workload.Epoch+16, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCPlane: renewal throughput of the sharded control-plane engine
// (cserv.CPlane) vs. concurrent-EER population and shard count. One iteration
// is one full renewal wave over the population via RenewBatch; the ns/renew
// and renews/s metrics are per-EER, directly comparable across populations.
// Populations above 10^4 (including the million-EER point) run only without
// -short.
func BenchmarkCPlane(b *testing.B) {
	sizes := []int{1_000, 10_000}
	if !testing.Short() {
		sizes = append(sizes, 100_000, 1_000_000)
	}
	for _, n := range sizes {
		for _, shards := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("eers=%d/shards=%d", n, shards), func(b *testing.B) {
				segrs := n / 10
				var now uint32 = 1_000_000
				src := topology.MustIA(1, 7)
				topo := topology.New()
				topo.AddAS(topology.MustIA(1, 1), true)
				capKbps := uint64(segrs) * 2_000
				if capKbps < 1_000_000 {
					capKbps = 1_000_000
				}
				for i := 1; i <= 4; i++ {
					nbr := topology.MustIA(1, topology.ASID(100+i))
					topo.AddAS(nbr, true)
					topo.MustConnect(topology.MustIA(1, 1), topology.IfID(i), nbr, 1,
						topology.LinkCore, topology.LinkSpec{CapacityKbps: capKbps})
				}
				cp, err := cserv.NewCPlane(cserv.CPlaneConfig{
					AS:           topo.AS(topology.MustIA(1, 1)),
					Split:        admission.DefaultSplit,
					Shards:       shards,
					LedgerEpochs: 64,
					Clock:        func() uint32 { return now },
				})
				if err != nil {
					b.Fatal(err)
				}
				segID := func(i int) reservation.ID { return reservation.ID{SrcAS: src, Num: uint32(i)} }
				eerID := func(i int) reservation.ID { return reservation.ID{SrcAS: src, Num: uint32(1<<30 | i)} }
				for i := 0; i < segrs; i++ {
					if _, err := cp.AddSegR(admission.Request{
						ID: segID(i), Src: src,
						In: topology.IfID(1 + i%4), Eg: topology.IfID(1 + (i+1)%4),
						MaxKbps: 1_000,
					}); err != nil {
						b.Fatal(err)
					}
				}
				items := make([]cserv.EERRenewal, n)
				results := make([]cserv.RenewResult, n)
				for i := 0; i < n; i++ {
					if err := cp.SetupEER(eerID(i), segID(i%segrs), 100, now+16); err != nil {
						b.Fatal(err)
					}
					items[i] = cserv.EERRenewal{EER: eerID(i), Seg: segID(i % segrs), BwKbps: 100}
				}
				wave := func() {
					now += 4
					for i := range items {
						items[i].ExpT = now + 16
					}
					cp.RenewBatch(items, results)
				}
				wave() // warm up ledger heaps and map buckets
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					wave()
				}
				b.StopTimer()
				for i := range results {
					if results[i].Err != nil {
						b.Fatalf("renewal %d: %v", i, results[i].Err)
					}
				}
				renewals := int64(b.N) * int64(n)
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(renewals), "ns/renew")
					b.ReportMetric(float64(renewals)/sec, "renews/s")
				}
			})
		}
	}
}

// BenchmarkVetSelf measures the colibri-vet invariant gate on this
// repository — the fixed cost every CI run and pre-commit hook pays. It
// shells out exactly as CI does (`go run ./cmd/colibri-vet -json ./...`),
// so the figure includes toolchain start-up and the nomalloc check's
// escape-analysis rebuilds, and it fails if the tree is not clean.
func BenchmarkVetSelf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmd := exec.Command("go", "run", "./cmd/colibri-vet", "-json", "./...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			b.Fatalf("colibri-vet failed: %v\n%s", err, out)
		}
	}
}

// TestVetSelfBudget is the CI smoke for the gate's cost: one BenchmarkVetSelf
// iteration must stay under 2× the EXPERIMENTS.md figure (≈4.1 s wall →
// 8.2 s budget) so the eight-check analyzer can't silently grow past
// pre-commit-hook viability. Gated behind COLIBRI_VET_BUDGET=1 because the
// figure is calibrated to the CI container class; the budget in seconds can
// be overridden through the variable's value for other hardware.
func TestVetSelfBudget(t *testing.T) {
	budgetEnv := os.Getenv("COLIBRI_VET_BUDGET")
	if budgetEnv == "" {
		t.Skip("set COLIBRI_VET_BUDGET=1 (or a budget in seconds) to enforce the gate-cost budget")
	}
	budget := 8.2 * float64(time.Second)
	if secs, err := time.ParseDuration(budgetEnv + "s"); err == nil && secs > time.Second {
		budget = float64(secs)
	}
	// Warm the build cache first: the budget measures the analyzer, not a
	// cold toolchain.
	if out, err := exec.Command("go", "build", "./cmd/colibri-vet").CombinedOutput(); err != nil {
		t.Fatalf("building colibri-vet: %v\n%s", err, out)
	}
	start := time.Now()
	out, err := exec.Command("go", "run", "./cmd/colibri-vet", "-json", "./...").CombinedOutput()
	wall := time.Since(start)
	if err != nil {
		t.Fatalf("colibri-vet failed: %v\n%s", err, out)
	}
	if float64(wall) > budget {
		t.Fatalf("colibri-vet took %.1fs, over the %.1fs budget (2× the EXPERIMENTS.md figure) — profile the new checks or update the figure",
			wall.Seconds(), budget/float64(time.Second))
	}
	t.Logf("colibri-vet self-run: %.1fs (budget %.1fs)", wall.Seconds(), budget/float64(time.Second))
}

// BenchmarkNetsimScale measures discrete-event throughput of the two netsim
// engines on generated 100- and 1000-AS topologies (one shard per AS,
// shortest-path forwarding, two flows per AS). "seq" is the sequential
// reference engine; "par/N" the safe-window parallel engine with N workers.
// Both simulate the identical event sequence — the equivalence suite proves
// the traces bit-identical — so events/s and Mpps compare engines, not
// workloads. One iteration is one full simulated run.
func BenchmarkNetsimScale(b *testing.B) {
	for _, ases := range []int{100, 1000} {
		if ases == 1000 && testing.Short() {
			continue
		}
		for _, workers := range []int{0, 1, 4, 8} {
			mode := "seq"
			if workers > 0 {
				mode = fmt.Sprintf("par/%d", workers)
			}
			b.Run(fmt.Sprintf("as=%d/%s", ases, mode), func(b *testing.B) {
				cfg := experiments.ScaleConfig{ASes: ases, Seed: 1, DurationNs: 20e6}
				var events, pkts uint64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := netsim.NewSim()
					delivered := experiments.BuildScale(cfg, s)
					if workers == 0 {
						s.Run(0)
					} else {
						s.RunParallel(0, workers)
					}
					events += s.Executed()
					p, _, _ := delivered()
					pkts += p
				}
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(events)/sec/1e6, "Mevents/s")
				}
				reportMpps(b, int64(pkts))
			})
		}
	}
}
