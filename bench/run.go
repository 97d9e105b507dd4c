package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"colibri/internal/router"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wave is one KeeperFleet.Tick that renewed something.
type wave struct {
	items     int64
	ns        int64
	installNs int64 // traced waves only: time inside Gateway.Install
}

// waveHist is the distribution of the waves' time per item.
func waveHist(waves []wave) *hist {
	var h hist
	for _, wv := range waves {
		h.record(wv.ns / wv.items)
	}
	return &h
}

// meter collects the timed section's samples. Plain samples feed the
// end-to-end metrics; the traced ones are the same ops measured at their
// outermost span, for the tracing-overhead figure.
type meter struct {
	pkt, setup, renew                   series
	tracedPkt, tracedSetup, tracedRenew hist
	waves, tracedWaves                  []wave
}

// newMeter sizes the blocks: pktBlock and reqBlock, or what one slice of a
// round runs where that is less (a block never spans two slices).
func newMeter(sp spec) *meter {
	pkt := min(pktBlock, max(sp.pktsPerRound/sp.parts, 1))
	req := min(reqBlock, max(sp.churnPerRound/sp.parts, 1))
	return &meter{pkt: series{size: uint64(pkt)}, setup: series{size: uint64(req)}, renew: series{size: uint64(req)}}
}

// runConfig is one run of one workload.
type runConfig struct {
	seed int64
	// rounds is the length of the timed section: a fixed op count, not a
	// duration, so that every count repeats exactly (spec.roundsFor turns
	// the contract's --seconds into it).
	rounds int
	trace  bool
	spans  string // traced runs: write the spans here as CSV at exit
}

// result is everything one run reports.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seed      int64             `json:"seed"`
	Rounds    int               `json:"rounds"`
	TimedS    float64           `json:"timed_s"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Noisy     bool              `json:"noisy"`
	Counts    counts            `json:"counts"`
	Digest    uint64            `json:"input_digest"`
	Metrics   map[string]metric `json:"metrics"`
	Dists     map[string]dist   `json:"distributions"`
}

const (
	// pktBlock and reqBlock are the series' block sizes: consecutive
	// samples short enough to fall inside one phase of the host.
	pktBlock = 1024
	reqBlock = 64
	// plainSetups is how often a plain run sets its workload up: the
	// benchmark contract wants setup_s as the median of several set-ups in
	// one run. A traced run does not report setup_s and sets up once.
	plainSetups = 3
	// spanCap bounds a traced run: the recorder is preallocated and the
	// timed section ends when another round might not fit.
	spanCap = 2_000_000
	// horizonSecs keeps a run inside the SegRs' 300-second lifetime, which
	// nothing renews, with room for the last EERs to expire.
	horizonSecs = 240
	// noisyBelow marks a run whose process got less than this share of a
	// CPU: its timings are not comparable.
	noisyBelow = 0.90
)

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuNs is the process's user+system CPU time so far (microsecond
// resolution). Unlike wall time it leaves out what the hypervisor gave to
// other guests while the process was runnable.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// spansPerRound is a generous bound on what one traced round records.
func spansPerRound(sp spec) int {
	return 2*sp.pktsPerRound + 24*sp.churnPerRound + sp.fleet/256 + 256
}

// runWorkload sets the workload up (plainSetups times in a plain run,
// keeping the last world), runs the timed section and checks the outcome.
func runWorkload(sp spec, cfg runConfig) (*result, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(spanCap)
	}
	var (
		w      *world
		setupS []float64
		base   uint64
		warm   = newMeter(sp)
	)
	setups := plainSetups
	if cfg.trace {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		w = nil
		runtime.GC()
		base = heapAlloc()
		// Set-up neither sleeps nor waits, so its CPU time is its wall time
		// less what the hypervisor gave to other guests meanwhile.
		c0 := cpuNs()
		var err error
		if w, err = newWorld(sp, cfg.seed, rec); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		// Fixed warm-up: caches fill and lazy set-up finishes before timing.
		for r := 0; r < sp.warmRounds; r++ {
			w.round(r, warm, false)
		}
		runtime.GC()
		setupS = append(setupS, float64(cpuNs()-c0)/1e9)
	}
	w.attempted = 0

	var (
		m                          = newMeter(sp)
		ms0, ms1                   runtime.MemStats
		mallocs, allocBytes, pause uint64
		gcs                        uint32
		plainOps                   int64
		n, tracedRounds            int
	)
	cpu0 := cpuNs()
	start := time.Now()
	for round := sp.warmRounds; n < cfg.rounds && round*sp.roundSecs < horizonSecs-sp.cohorts; round++ {
		// A traced run alternates plain and traced rounds, so both kinds of
		// sample come from one process in one state.
		traced := cfg.trace && n%2 == 1
		if traced && !rec.room(spansPerRound(sp)) {
			break
		}
		if traced {
			tracedRounds++
			w.round(round, m, true)
		} else {
			ops0 := w.attempted
			runtime.ReadMemStats(&ms0)
			w.round(round, m, false)
			runtime.ReadMemStats(&ms1)
			mallocs += ms1.Mallocs - ms0.Mallocs
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			pause += ms1.PauseTotalNs - ms0.PauseTotalNs
			gcs += ms1.NumGC - ms0.NumGC
			plainOps += w.attempted - ops0
		}
		n++
	}
	wall := time.Since(start).Seconds()
	cpu := float64(cpuNs()-cpu0) / 1e9
	runtime.GC()
	heap := float64(heapAlloc()) - float64(base)

	w.verify()
	res := &result{
		Workload:  sp.name,
		Traced:    cfg.trace,
		Seed:      cfg.seed,
		Rounds:    n,
		TimedS:    wall,
		Correct:   w.failed == 0,
		Attempted: w.attempted,
		Failed:    w.failed,
		Failures:  w.failures,
		Noisy:     cpu/wall < noisyBelow,
		Counts:    w.counts,
		Digest:    w.digest,
		Metrics:   map[string]metric{},
		Dists: map[string]dist{
			"pkt_us":       m.pkt.all.summary(1e3),
			"eer_setup_us": m.setup.all.summary(1e3),
			"eer_renew_us": m.renew.all.summary(1e3),
			"wave_us_item": waveHist(m.waves).summary(1e3),
		},
	}
	if len(m.pkt.p50) == 0 || len(m.setup.p50) == 0 || len(m.renew.p50) == 0 || len(m.waves) == 0 {
		return nil, fmt.Errorf("%s: the timed section (%d rounds) did not exercise every station", sp.name, n)
	}

	// End-to-end metrics, from the plain samples only. The timings are
	// fast-phase levels: what the fastest of the run's blocks and waves
	// reaches, the program's speed on a core that nothing disturbs
	// (README.md, "Noise").
	var rates []float64 // EERs renewed per second, wave by wave
	for _, wv := range m.waves {
		rates = append(rates, float64(wv.items)/(float64(wv.ns)/1e9))
	}
	e := res.Metrics
	e["setup_s"] = metric{median(setupS), "s"}
	e["heap_mb"] = metric{heap / (1 << 20), "MiB"}
	e["pkt_fast_p50_us"] = metric{slices.Min(m.pkt.p50) / 1e3, "us"}
	e["pkt_fast_mpps"] = metric{1e3 / slices.Min(m.pkt.mean), "Mpps"}
	e["eer_setup_fast_p50_us"] = metric{slices.Min(m.setup.p50) / 1e3, "us"}
	e["eer_renew_fast_p50_us"] = metric{slices.Min(m.renew.p50) / 1e3, "us"}
	e["wave_fast_renew_per_s"] = metric{slices.Max(rates), "1/s"}

	// Diagnostics every run has; a traced run adds the per-layer ones. The
	// pooled quantiles are what their names say, over every plain sample of
	// the run, and move with the share of fast and slow time it happened to
	// get: the layers are reconciled against these medians.
	us := func(h *hist, q float64) metric { return metric{h.quantile(q) / 1e3, "us"} }
	e["harness.pkt_p50_us"] = us(&m.pkt.all, 0.50)
	e["harness.pkt_p95_us"] = us(&m.pkt.all, 0.95)
	e["harness.pkt_p99_us"] = us(&m.pkt.all, 0.99)
	e["harness.setup_p50_us"] = us(&m.setup.all, 0.50)
	e["harness.setup_p95_us"] = us(&m.setup.all, 0.95)
	e["harness.setup_p99_us"] = us(&m.setup.all, 0.99)
	e["harness.renew_p50_us"] = us(&m.renew.all, 0.50)
	e["harness.renew_p95_us"] = us(&m.renew.all, 0.95)
	e["harness.wave_wall_per_s"] = metric{median(rates), "1/s"}
	ops := float64(plainOps)
	e["runtime.allocs_per_op"] = metric{float64(mallocs) / ops, "count"}
	e["runtime.bytes_per_op"] = metric{float64(allocBytes) / ops, "B"}
	e["runtime.gc_cycles"] = metric{float64(gcs), "count"}
	e["runtime.gc_pause_ms"] = metric{float64(pause) / 1e6, "ms"}
	e["harness.wall_ops_per_s"] = metric{float64(w.attempted) / wall, "1/s"}
	e["harness.cpu_wall_ratio"] = metric{cpu / wall, "ratio"}
	if cfg.trace {
		if tracedRounds == 0 {
			return nil, fmt.Errorf("%s: no traced round ran; give the run more time", sp.name)
		}
		w.layerMetrics(m, tracedRounds, e)
		w.counterMetrics(e)
		w.leafProbes(e)
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, rec.spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// verify applies the end-of-run correctness gates; each violation is a
// failure and makes the command exit non-zero.
func (w *world) verify() {
	c := &w.counts
	if c.Delivered != c.Conforming {
		w.fail("delivered %d of %d conforming packets", c.Delivered, c.Conforming)
	}
	if c.SetupsRefused != c.RefusedWanted {
		w.fail("refused %d setups, expected exactly the %d over-capacity ones", c.SetupsRefused, c.RefusedWanted)
	}

	// Router drop counters must equal the hostile packets injected, reason
	// by reason, and nothing else may have been dropped.
	got := w.routerDrops()
	var total, hostile uint64
	for _, v := range got {
		total += v
	}
	for kind, reason := range hostileReasons {
		hostile += uint64(c.Hostile[kind])
		if got[reason.Error()] != uint64(c.Hostile[kind]) {
			w.fail("routers dropped %d packets as %q, %d were injected", got[reason.Error()], reason, c.Hostile[kind])
		}
	}
	if total != hostile {
		w.fail("routers dropped %d packets in all, %d hostile were injected: %v", total, hostile, got)
	}

	// The fleet stayed reserved throughout.
	var demoted int
	for _, fleet := range w.fleets {
		demoted += fleet.Demoted()
	}
	if demoted != 0 || w.inst.demotions != 0 {
		w.fail("fleets: %d keepers demoted, %d demotions", demoted, w.inst.demotions)
	}

	// No over-admission (the audit of experiments/storm.go): at every AS,
	// the EER demand charged to a SegR never exceeds the SegR's grant.
	ias := w.net.Topo.SortedIAs()
	for _, owner := range ias {
		for _, segr := range w.net.Node(owner).CServ.Store().InitiatedSegRs() {
			for _, ia := range ias {
				svc := w.net.Node(ia).CServ
				demand, ok := svc.CPlane().SegDemandMax(segr.ID)
				if !ok {
					continue
				}
				local, err := svc.Store().GetSegR(segr.ID)
				if err != nil {
					continue
				}
				if demand > local.Active.BwKbps {
					w.fail("over-admission at %s: SegR %s carries %d kbps of EERs, holds %d", ia, segr.ID, demand, local.Active.BwKbps)
				}
			}
		}
	}

	// Counters that say the workload, not the program, is wrong.
	for _, ia := range ias {
		svc := w.net.Node(ia).CServ
		snap := svc.Metrics().Snapshot()
		if snap.RenewThrottle != 0 || snap.RateLimited != 0 || snap.Demotions != 0 || snap.AuthFailures != 0 {
			w.fail("%s: throttled=%d rate-limited=%d demotions=%d auth-failures=%d",
				ia, snap.RenewThrottle, snap.RateLimited, snap.Demotions, snap.AuthFailures)
		}
		if stale := svc.CPlane().Counts().Stale; stale != 0 {
			w.fail("%s: %d renewals of EERs that no longer exist", ia, stale)
		}
	}
}

// hostileReasons maps each hostile kind to the drop reason it must earn.
var hostileReasons = [numHostile]error{
	hostileBadHVF: router.ErrBadHVF,
	hostileReplay: router.ErrReplay,
	hostileStale:  router.ErrStale,
}

// routerDrops sums Router.Drops() over every AS.
func (w *world) routerDrops() map[string]uint64 {
	sum := make(map[string]uint64)
	for _, ia := range w.net.Topo.SortedIAs() {
		for reason, n := range w.net.Node(ia).Router.Drops() {
			sum[reason] += n
		}
	}
	return sum
}
