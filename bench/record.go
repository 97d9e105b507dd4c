package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// record is the machine-readable account of one invocation: environment,
// inputs, and every run with all its metrics, counts and distributions.
// One is committed per issue under records/, so the trajectory across PRs
// is a diff.
type record struct {
	Issue      string    `json:"issue"`
	Claim      *string   `json:"claim"` // the end-to-end gain this record claims over its parent; null = none
	GitSHA     string    `json:"git_sha"`
	GoVersion  string    `json:"go_version"`
	CPUModel   string    `json:"cpu_model"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Scale      float64   `json:"scale"`
	Runs       []*result `json:"runs"`
}

func writeRecord(path string, runs []*result, seed int64, seconds float64, scale float64) error {
	rec := record{
		Issue:      strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)),
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Scale:      scale,
		Runs:       runs,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitSHA is best effort: the benchmark also runs in checkouts without git.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// benchmarkJSON is the part of BENCHMARK.json the harness reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// home names, by prefix, the workloads ISSUE 14 judges an end-to-end metric
// on; a metric not listed (setup_s, heap_mb) is judged on all. Every
// workload emits every metric, because the benchmark contract wants each
// from each and none ever 0, but off its home workloads a metric comes from
// a small side-load: diff prints it as a diagnostic and never fails on it.
var home = map[string]string{
	"pkt_fast_p50_us":       "pkt-",
	"pkt_fast_mpps":         "pkt-",
	"eer_setup_fast_p50_us": "req-mix",
	"eer_renew_fast_p50_us": "req-mix",
	"wave_fast_renew_per_s": "req-storm",
}

// exactCounts are the metrics that are counts of the program's own and must
// repeat exactly for one seed and round count.
var exactCounts = []string{
	"cserv.dedup_hits", "cserv.rejects", "cserv.throttled", "cserv.stale", "cserv.refused_expected",
	"cserv.hop_calls", "gateway.build_calls", "gateway.build_rejects", "router.process_calls",
	"router.drops_badhvf", "router.drops_replay", "router.drops_stale",
}

// countDiffs lists the exact counts on which two runs of one workload, seed
// and round count differ: ops, outcomes, the generated inputs, the program's
// counters and allocations per op to within 0.1 (the runtime's own few
// allocations depend on when a collection falls).
func countDiffs(a, b *result) []string {
	var out []string
	if a.Attempted != b.Attempted || a.Failed != b.Failed {
		out = append(out, fmt.Sprintf("ops attempted/failed %d/%d → %d/%d", a.Attempted, a.Failed, b.Attempted, b.Failed))
	}
	if a.Digest != b.Digest {
		out = append(out, "generated inputs (input_digest)")
	}
	if a.Counts != b.Counts {
		out = append(out, fmt.Sprintf("outcomes %+v → %+v", a.Counts, b.Counts))
	}
	names := exactCounts
	if !a.Traced {
		names = nil // a plain run does not read the program's counters
	}
	for _, name := range names {
		if va, vb := a.Metrics[name].Value, b.Metrics[name].Value; va != vb {
			out = append(out, fmt.Sprintf("%s %.0f → %.0f", name, va, vb))
		}
	}
	const allocs = "runtime.allocs_per_op"
	if va, vb := a.Metrics[allocs].Value, b.Metrics[allocs].Value; math.Abs(va-vb) >= 0.1 {
		out = append(out, fmt.Sprintf("%s %.1f → %.1f", allocs, va, vb))
	}
	return out
}

// diffMain compares two records: every end-to-end metric on its home
// workloads against the bound BENCHMARK.json fixes (elsewhere as a
// diagnostic), and every exact count of runs that had the same seed and
// round count. It exits 1 if anything regressed.
func diffMain(args []string) int {
	fs := flag.NewFlagSet("bench diff", flag.ContinueOnError)
	bounds := fs.String("bounds", "", "the benchmark description that fixes each metric's regression bound (default: BENCHMARK.json here or one directory up)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench diff [-bounds BENCHMARK.json] old.json new.json")
		return 2
	}
	if *bounds == "" {
		*bounds = "BENCHMARK.json"
		if _, err := os.Stat(*bounds); err != nil {
			*bounds = filepath.Join("..", "BENCHMARK.json") // run from bench/
		}
	}
	var (
		bj       benchmarkJSON
		old, new record
	)
	for _, in := range []struct {
		path string
		v    any
	}{{*bounds, &bj}, {fs.Arg(0), &old}, {fs.Arg(1), &new}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(os.Stderr, "bench diff:", err)
			return 2
		}
	}
	find := func(r *record, workload string, traced bool) *result {
		for _, run := range r.Runs {
			if run.Workload == workload && run.Traced == traced {
				return run
			}
		}
		return nil
	}
	regressed := 0
	fmt.Printf("%-10s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, wl := range bj.Workloads {
		a, b := find(&old, wl.Name, false), find(&new, wl.Name, false)
		if a == nil || b == nil {
			fmt.Printf("%-10s missing from one record\n", wl.Name)
			continue
		}
		for _, m := range bj.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			verdict := "diagnostic"
			if strings.HasPrefix(wl.Name, home[m.Name]) {
				verdict = diffVerdict(va, vb, m, a.Noisy || b.Noisy)
			}
			if verdict == "regressed" {
				regressed++
			}
			fmt.Printf("%-10s %-18s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, va, vb, 100*(vb-va)/va, 100*m.Bound, verdict)
		}
	}
	for _, wl := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			a, b := find(&old, wl.Name, traced), find(&new, wl.Name, traced)
			mode := "plain"
			if traced {
				mode = "traced"
			}
			switch {
			case a == nil || b == nil:
			case old.Seed != new.Seed || old.Scale != new.Scale || a.Rounds != b.Rounds:
				fmt.Printf("%-10s %-6s counts not compared: seed, scale or rounds differ\n", wl.Name, mode)
			default:
				diffs := countDiffs(a, b)
				if len(diffs) == 0 {
					fmt.Printf("%-10s %-6s every exact count identical (%d rounds, %d ops)\n", wl.Name, mode, a.Rounds, a.Attempted)
				}
				for _, d := range diffs {
					fmt.Printf("%-10s %-6s count changed: %s\n", wl.Name, mode, d)
				}
			}
		}
	}
	if regressed > 0 {
		return 1
	}
	return 0
}

// diffVerdict classifies one metric's change: unresolved when either run
// was noisy, otherwise by whether it moved past the bound and which way.
func diffVerdict(old, new float64, m boundedMetric, noisy bool) string {
	if noisy || old == 0 {
		return "unresolved"
	}
	worse := (new - old) / old
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "regressed"
	case worse < -m.Bound:
		return "improved"
	default:
		return "within-bound"
	}
}
