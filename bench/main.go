// Command bench is the repository's end-to-end benchmark: the packet journey
// (host → gateway → every on-path border router → delivery) and the request
// journey (host → every on-path CServ → back) measured through the composed
// system, core.Network, from one goroutine in a closed loop, with a
// per-layer trace taken from outside. See README.md.
//
//	sh bench/run.sh [flags]                   every workload, plain then traced (from the root)
//	sh bench/run.sh -workload pkt-hot -trace 0 -seed 7 -seconds 15
//	sh bench/run.sh diff old.json new.json
//
// With one workload and -trace 0 or 1 the last line of standard output is
// the result object the benchmark contract (BENCHMARK.json) asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
)

// metricDef names a metric the harness emits. BENCHMARK.json repeats these
// lists (with the regression bounds); TestBenchmarkJSONMatches keeps the
// two in step.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MiB", "lower"},
	{"pkt_fast_p50_us", "us", "lower"},
	{"pkt_fast_mpps", "Mpps", "higher"},
	{"eer_setup_fast_p50_us", "us", "lower"},
	{"eer_renew_fast_p50_us", "us", "lower"},
	{"wave_fast_renew_per_s", "1/s", "higher"},
}

var perLayer = []metricDef{
	{"gateway.build_us", "us", "lower"},
	{"gateway.build_calls", "count", "higher"},
	{"gateway.build_rejects", "count", "lower"},
	{"router.process_us", "us", "lower"},
	{"router.process_calls", "count", "higher"},
	{"router.last_hop_us", "us", "lower"},
	{"router.drop_us", "us", "lower"},
	{"router.drops_badhvf", "count", "higher"},
	{"router.drops_replay", "count", "higher"},
	{"router.drops_stale", "count", "higher"},
	{"packet.deliver_us", "us", "lower"},
	{"core.send_glue_us", "us", "lower"},
	{"packet.decode_ns", "ns", "lower"},
	{"packet.serialize_ns", "ns", "lower"},
	{"cryptoutil.sigma_ns", "ns", "lower"},
	{"cryptoutil.hvf_ns", "ns", "lower"},
	{"replay.check_ns", "ns", "lower"},
	{"ofd.record_ns", "ns", "lower"},
	{"monitor.allow_ns", "ns", "lower"},
	{"cserv.src_self_us", "us", "lower"},
	{"cserv.transit_self_us", "us", "lower"},
	{"cserv.dst_self_us", "us", "lower"},
	{"cserv.renew_src_self_us", "us", "lower"},
	{"cserv.renew_transit_self_us", "us", "lower"},
	{"cserv.renew_dst_self_us", "us", "lower"},
	{"cserv.hop_calls", "count", "higher"},
	{"cserv.req_bytes", "B", "lower"},
	{"cserv.resp_bytes", "B", "lower"},
	{"gateway.install_us", "us", "lower"},
	{"cserv.tick_ms", "ms", "lower"},
	{"gateway.expire_ms", "ms", "lower"},
	{"cserv.fleet_tick_ms", "ms", "lower"},
	{"cserv.batch_hop_us_per_item", "us", "lower"},
	{"cserv.fleet_glue_us_per_item", "us", "lower"},
	{"cserv.unmarshal_ns", "ns", "lower"},
	{"cserv.marshal_ns", "ns", "lower"},
	{"cserv.cplane_setup_ns", "ns", "lower"},
	{"cserv.cplane_renew_ns", "ns", "lower"},
	{"restree.ledger_renew_ns", "ns", "lower"},
	{"cryptoutil.seal_ns", "ns", "lower"},
	{"cryptoutil.open_ns", "ns", "lower"},
	{"cryptoutil.cmac_ns", "ns", "lower"},
	{"drkey.get_ns", "ns", "lower"},
	{"cserv.dedup_hits", "count", "lower"},
	{"cserv.rejects", "count", "lower"},
	{"cserv.throttled", "count", "lower"},
	{"cserv.stale", "count", "lower"},
	{"cserv.refused_expected", "count", "higher"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.bytes_per_op", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"harness.wall_ops_per_s", "1/s", "higher"},
	{"harness.cpu_wall_ratio", "ratio", "higher"},
	{"harness.pkt_p50_us", "us", "lower"},
	{"harness.pkt_p95_us", "us", "lower"},
	{"harness.pkt_p99_us", "us", "lower"},
	{"harness.setup_p50_us", "us", "lower"},
	{"harness.setup_p95_us", "us", "lower"},
	{"harness.setup_p99_us", "us", "lower"},
	{"harness.renew_p50_us", "us", "lower"},
	{"harness.renew_p95_us", "us", "lower"},
	{"harness.wave_wall_per_s", "1/s", "higher"},
	{"harness.unattributed_pct", "%", "lower"},
	{"harness.unattributed_req_pct", "%", "lower"},
	{"harness.trace_overhead_pct", "%", "lower"},
	{"harness.trace_overhead_req_pct", "%", "lower"},
}

func main() {
	// One P: the driving goroutine and the garbage collector share a core.
	// The sandbox VM is CPU-capped below its two vCPUs, so a collector
	// running beside the driver on the second core gets the whole VM
	// throttled in bursts (the driver's share of a CPU fell to 0.5–0.7 and
	// wave rates swung 9–40 k/s); on one P they repeat within ±5 %.
	runtime.GOMAXPROCS(1)
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(diffMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload   = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		seed       = fs.Int64("seed", 1, "seed of the generated inputs: session order, bandwidths, op mix, hostile packets")
		seconds    = fs.Float64("seconds", 15, "nominal length of each timed section; it fixes the number of rounds (spec.roundsFor), so counts repeat exactly")
		scale      = fs.Float64("scale", 1, "fraction of the populations and per-round op counts, for smoke runs")
		traceMode  = fs.String("trace", "", "0: end-to-end metrics only, 1: per-layer metrics from a traced run (default: both, one after the other)")
		out        = fs.String("out", "", "write the machine-readable record of all runs to this file")
		spans      = fs.String("spans", "", "traced runs: write the recorded spans to this CSV file at exit")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the runs to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after the runs to this file")
		exectrace  = fs.String("exectrace", "", "write a runtime execution trace of the runs to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traceMode != "" && *traceMode != "0" && *traceMode != "1") {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	var chosen []spec
	if *workload == "" {
		chosen = specs
	} else {
		for _, name := range strings.Split(*workload, ",") {
			sp, err := specByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			chosen = append(chosen, sp)
		}
	}
	modes := []bool{false, true}
	if *traceMode != "" {
		modes = []bool{*traceMode == "1"}
	}

	stop, err := startProfiles(*cpuprofile, *exectrace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var results []*result
	for _, sp := range chosen {
		for _, traced := range modes {
			res, err := runWorkload(sp.scaled(*scale), runConfig{
				seed: *seed, rounds: sp.roundsFor(*seconds), trace: traced, spans: *spans,
			})
			if err != nil {
				stop()
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			results = append(results, res)
			report(os.Stdout, res)
		}
	}
	stop()
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeRecord(*out, results, *seed, *seconds, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if len(results) == 1 {
		// The benchmark contract's result object, last line of stdout.
		line, err := json.Marshal(contractResult(results[0]))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	for _, res := range results {
		if !res.Correct {
			return 1
		}
	}
	return 0
}

// contractResult keeps exactly the metrics the contract names for the
// run's mode: every end-to-end metric untraced, every per-layer one traced.
func contractResult(res *result) map[string]any {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.name] = res.Metrics[d.name]
	}
	return map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	}
}

// report prints one run for a reader: every metric by name with its unit.
func report(f *os.File, res *result) {
	mode := "plain"
	if res.Traced {
		mode = "traced"
	}
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	if res.Noisy {
		verdict += ", noisy (the process got less than 90 % of a CPU)"
	}
	fmt.Fprintf(f, "== %s (%s, seed %d): %d rounds in %.2f s, %d ops attempted, %d failed — %s\n",
		res.Workload, mode, res.Seed, res.Rounds, res.TimedS, res.Attempted, res.Failed, verdict)
	for _, msg := range res.Failures {
		fmt.Fprintf(f, "   FAILED: %s\n", msg)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	// End-to-end metrics first, in their defined order.
	for _, d := range endToEnd {
		fmt.Fprintf(f, "   %-32s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, name := range names {
		if strings.Contains(name, ".") {
			fmt.Fprintf(f, "   %-32s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
		}
	}
	if res.Traced {
		// The reconciliation compares the pooled medians of the plain rounds
		// (harness.pkt_p50_us, harness.setup_p50_us) with the traced rounds'
		// layer medians: same process, same mix of host states.
		m := res.Metrics
		pkt, setup := m["harness.pkt_p50_us"].Value, m["harness.setup_p50_us"].Value
		fmt.Fprintf(f, "   reconciliation: packet journey median %.3f us = layers %.3f us + glue %.3f us (%.1f %% unattributed; tracing adds %.1f %%)\n",
			pkt, pkt-m["core.send_glue_us"].Value, m["core.send_glue_us"].Value,
			m["harness.unattributed_pct"].Value, m["harness.trace_overhead_pct"].Value)
		fmt.Fprintf(f, "   reconciliation: EER setup median %.3f us, %.1f %% unattributed by src + transit hops + dst + install (tracing adds %.1f %%)\n",
			setup, m["harness.unattributed_req_pct"].Value, m["harness.trace_overhead_req_pct"].Value)
	}
}

// startProfiles starts the requested CPU profile and execution trace and
// returns the function that stops them.
func startProfiles(cpuPath, tracePath string) (func(), error) {
	var stops []func()
	stop := func() {
		for _, f := range stops {
			f()
		}
		stops = nil
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			stop()
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			stop()
			return nil, err
		}
		stops = append(stops, func() { trace.Stop(); f.Close() })
	}
	return stop, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
