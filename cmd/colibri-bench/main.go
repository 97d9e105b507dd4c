// Command colibri-bench regenerates the tables and figures of the paper's
// evaluation and prints them in the same shape.
//
// Usage:
//
//	colibri-bench [-quick] [-duration 300ms] [-telemetry text|json] [-parallel N,...] [-workers N,...] [-flows N] [fig3|fig4|fig5|fig6|table2|appendix-e|doc|ablations|chaos|scale|cplane|storm|policies|all]
//
// policies runs the reservation-model head-to-head (bounded-tube vs
// flyover vs hummingbird behind policy.Policy): setup/renewal latency, hop
// operations and the DoC-flood outcome per model and engine shard count.
//
// fig4 times EER admission on the engine a transit hop's handler runs
// (cserv.CPlane: SetupEERPath + TeardownEERPath against s SegRs and n EERs).
//
// cplane sweeps that engine over EER populations and shard counts (SegR
// admission has one implementation; there is no admitter dimension).
//
// storm drives the §4.2 renewal storm through the live CPlane-backed
// request path: -flows EERs (default 10⁶) all renewing in one 4 s window
// across a CServ crash and recovery.
//
// With -quick, reduced parameter grids keep the total runtime under a
// minute; the default grids match the paper's sweeps (fig5/fig6 with
// r = 2^20 build million-entry gateways and take several minutes).
//
// fig6 additionally sweeps the RSS-sharded multi-core pipeline
// (router.Sharded / gateway.Sharded, 8 flow shards) over the worker counts
// from -workers (default 1,2,4,8), reporting aggregate and per-worker-
// normalized Mpps.
//
// The scale experiment sweeps the netsim engines over generated 100- and
// 1000-AS topologies: a sequential baseline, then the safe-window parallel
// engine at each worker count from -parallel (default 1,2,4,8), after
// proving the run bit-identical across engines.
//
// With -telemetry, the experiments' internal instruments (gateway phase
// latency histograms, router drop counters, simulated queue depths) are
// collected and dumped at exit in the chosen format.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"colibri/internal/experiments"
	"colibri/internal/telemetry"
)

// parseWorkers parses the -parallel worker-count list.
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("worker count %d < 1", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	quick := flag.Bool("quick", false, "reduced parameter grids")
	dur := flag.Duration("duration", 300*time.Millisecond, "measurement time per data-plane point")
	telFmt := flag.String("telemetry", "", "dump internal instruments at exit: text or json")
	parallel := flag.String("parallel", "1,2,4,8", "comma-separated worker counts for the scale experiment")
	shardedWorkers := flag.String("workers", "1,2,4,8", "comma-separated worker counts for fig6's sharded-pipeline sweep")
	stormFlows := flag.Int("flows", 1_000_000, "EER population for the storm experiment")
	flag.Parse()

	workers, err := parseWorkers(*parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -parallel %q: %v\n", *parallel, err)
		os.Exit(2)
	}
	fig6Workers, err := parseWorkers(*shardedWorkers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -workers %q: %v\n", *shardedWorkers, err)
		os.Exit(2)
	}

	var reg *telemetry.Registry
	switch *telFmt {
	case "":
	case "text", "json":
		reg = telemetry.NewRegistry("bench")
		experiments.EnableTelemetry(reg)
	default:
		fmt.Fprintf(os.Stderr, "unknown -telemetry format %q (want text or json)\n", *telFmt)
		os.Exit(2)
	}

	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	ran := false
	run := func(name string, fn func()) {
		if what == "all" || what == name {
			fn()
			fmt.Println()
			ran = true
		}
	}

	run("fig3", func() {
		existing, ratios, samples := experiments.Fig3Existing, experiments.Fig3Ratios, 100
		if *quick {
			existing, samples = []int{0, 5000, 10000}, 50
		}
		fmt.Print(experiments.FormatFig3(experiments.RunFig3(existing, ratios, samples)))
	})
	run("fig4", func() {
		existing, segrs, samples := experiments.Fig4Existing, experiments.Fig4SegRs, 100
		if *quick {
			existing, segrs, samples = []int{10, 1000, 100_000}, []int{1, 10_000}, 50
		}
		fmt.Print(experiments.FormatFig4(experiments.RunFig4(existing, segrs, samples)))
	})
	run("fig5", func() {
		hops, rs := experiments.Fig5Hops, experiments.Fig5Reservations
		if *quick {
			hops, rs = []int{2, 4, 16}, []int{1, 1 << 15, 1 << 17}
		}
		fmt.Print(experiments.FormatFig5(experiments.RunFig5(hops, rs, *dur)))
	})
	run("fig6", func() {
		workers, rs := experiments.Fig6Workers, []int{1, 1 << 15, 1 << 20}
		if *quick {
			workers, rs = []int{1, 4, 16}, []int{1 << 15}
		}
		fmt.Print(experiments.FormatFig6(experiments.RunFig6(workers, rs, *dur)))
		fmt.Println()
		sw := fig6Workers
		if *quick {
			sw = []int{1, 4}
		}
		fmt.Print(experiments.FormatFig6Sharded(experiments.RunFig6Sharded(sw, *dur)))
	})
	run("table2", func() {
		fmt.Print(experiments.FormatTable2(experiments.RunTable2()))
	})
	run("appendix-e", func() {
		fmt.Print(experiments.FormatAppE(experiments.RunAppendixE(nil, *dur)))
	})
	run("doc", func() {
		fmt.Print(experiments.FormatDoC(experiments.RunDoC()))
	})
	run("ablations", func() {
		fmt.Print(experiments.FormatAblations(experiments.RunAblations(*dur)))
	})
	run("chaos", func() {
		cfg := experiments.ChaosConfig{}
		if *quick {
			cfg = experiments.ChaosConfig{
				Seed: 7, Loss: 0.05, Seconds: 25, Flows: 2, PktPerSec: 2,
				CrashFrom: 4, CrashTo: 21,
			}
		}
		r, err := experiments.RunChaos(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatChaos(r))
	})
	run("cplane", func() {
		cfg := experiments.CPlaneConfig{}
		if *quick {
			cfg.Sizes = []int{1_000, 10_000}
			cfg.Shards = []int{1, 4}
		}
		rows, err := experiments.RunCPlane(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cplane: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatCPlane(rows))
	})
	run("storm", func() {
		cfg := experiments.StormConfig{Flows: *stormFlows}
		if *quick {
			cfg.Flows = 10_000
		}
		r, err := experiments.RunStorm(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "storm: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatStorm(r))
	})
	run("policies", func() {
		cfg := experiments.PoliciesConfig{}
		if *quick {
			cfg = experiments.PoliciesConfig{
				Flows: 256, Hops: 3, Waves: 3, AttackFlows: 64, Shards: []int{1, 4},
			}
		}
		rows, err := experiments.RunPolicies(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "policies: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatPolicies(rows))
	})
	run("scale", func() {
		sizes := []int{100, 1000}
		if *quick {
			sizes = []int{100}
		}
		for _, ases := range sizes {
			cfg := experiments.ScaleConfig{ASes: ases, Workers: workers, Verify: true}
			if *quick {
				cfg.DurationNs = 20e6
			}
			r, err := experiments.RunScale(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scale: %v\n", err)
				os.Exit(1)
			}
			fmt.Print(experiments.FormatScale(r))
			fmt.Println()
		}
	})
	if !ran {
		fmt.Fprintf(os.Stderr,
			"unknown experiment %q (want fig3|fig4|fig5|fig6|table2|appendix-e|doc|ablations|chaos|scale|cplane|storm|policies|all)\n", what)
		os.Exit(2)
	}
	if reg != nil {
		snap := reg.Snapshot()
		fmt.Println("— telemetry —")
		if *telFmt == "json" {
			if err := telemetry.WriteJSON(os.Stdout, snap); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
				os.Exit(1)
			}
		} else if err := telemetry.WriteText(os.Stdout, snap); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			os.Exit(1)
		}
	}
}
