package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

// The experiment tests verify the *shape* the paper reports, on reduced
// parameter grids so the suite stays fast; cmd/colibri-bench runs the full
// sweeps.

func TestFig3ConstantTime(t *testing.T) {
	rows := RunFig3([]int{0, 5000}, []float64{0, 0.5}, 50)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[[2]int]float64{}
	for _, r := range rows {
		byKey[[2]int{r.Existing, int(r.Ratio * 10)}] = r.AvgMicros
		if r.AvgMicros <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
		// Paper: well under 1500 µs; ours is far faster.
		if r.AvgMicros > 1500 {
			t.Errorf("admission slower than the paper's bound: %+v", r)
		}
	}
	// 5000 existing SegRs must not meaningfully slow admission (allow 20×
	// slack for timer noise at sub-µs scales).
	if byKey[[2]int{5000, 0}] > 20*byKey[[2]int{0, 0}]+5 {
		t.Errorf("admission not constant-time: %v", byKey)
	}
	if !strings.Contains(FormatFig3(rows), "Fig. 3") {
		t.Error("FormatFig3 header missing")
	}
}

func TestFig4ConstantTime(t *testing.T) {
	rows := RunFig4([]int{10, 10_000}, []int{1, 1000}, 50)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	var small, large float64
	for _, r := range rows {
		if r.SegRs == 1 && r.ExistingEERs == 10 {
			small = r.AvgMicros
		}
		if r.SegRs == 1000 && r.ExistingEERs == 10_000 {
			large = r.AvgMicros
		}
		if r.AvgMicros > 500 {
			t.Errorf("EER admission above the paper's 500 µs scale: %+v", r)
		}
	}
	if large > 20*small+5 {
		t.Errorf("EER admission not constant-time: small %.3f µs vs large %.3f µs", small, large)
	}
	if !strings.Contains(FormatFig4(rows), "Fig. 4") {
		t.Error("FormatFig4 header missing")
	}
}

// TestFig5Shape checks Fig. 5's shape on four points. Each point is the best
// of five 50 ms windows, interleaved with the other points' windows, so that
// a stretch of host noise cannot land on every window of one point: with one
// window per point, run back to back, the path-length check flipped about one
// run in ten.
func TestFig5Shape(t *testing.T) {
	const windows = 5
	best := make(map[[2]int]float64)
	var rows []Fig5Row
	for range windows {
		rows = RunFig5([]int{2, 8}, []int{1, 1 << 12}, 50*time.Millisecond)
		for _, row := range rows {
			k := [2]int{row.Hops, row.Reservations}
			best[k] = max(best[k], row.Mpps)
		}
	}
	get := func(h, r int) float64 {
		if mpps, ok := best[[2]int{h, r}]; ok {
			return mpps
		}
		t.Fatalf("missing row %d/%d", h, r)
		return 0
	}
	// More hops → more HVFs → lower rate.
	if get(2, 1) <= get(8, 1) {
		t.Errorf("rate did not decrease with path length: %v vs %v", get(2, 1), get(8, 1))
	}
	// Order-of-magnitude floor: the paper's DPDK gateway does ≥ 0.4 Mpps
	// per core in its worst case; our pure-Go AES key expansion per hop is
	// costlier, so require ≥ 0.2 Mpps at 8 hops / 2^12 (see EXPERIMENTS.md
	// for the absolute-number discussion). Skipped under the race
	// detector's ~20× instrumentation.
	if !raceEnabled && get(8, 1<<12) < 0.2 {
		t.Errorf("gateway below the worst-case floor: %.3f Mpps", get(8, 1<<12))
	}
	if !strings.Contains(FormatFig5(rows), "Fig. 5") {
		t.Error("FormatFig5 header missing")
	}
}

func TestFig6RunsAndReports(t *testing.T) {
	rows := RunFig6([]int{1, 2}, []int{1 << 10}, 50*time.Millisecond)
	var br, gwFound bool
	for _, r := range rows {
		if r.Mpps <= 0 {
			t.Errorf("non-positive rate: %+v", r)
		}
		if r.Component == "border-router" {
			br = true
		}
		if r.Component == "gateway" {
			gwFound = true
		}
	}
	if !br || !gwFound {
		t.Error("missing component rows")
	}
	if !strings.Contains(FormatFig6(rows), "Fig. 6") {
		t.Error("FormatFig6 header missing")
	}
}

func TestTable2Protection(t *testing.T) {
	rows := RunTable2()
	get := func(phase int, class string) Table2Row {
		for _, r := range rows {
			if r.Phase == phase && r.Class == class {
				return r
			}
		}
		t.Fatalf("missing row %d/%s", phase, class)
		return Table2Row{}
	}
	near := func(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

	for phase := 1; phase <= 3; phase++ {
		// Reservation 2 always receives its full 0.8 Gbps.
		if r := get(phase, "Reservation 2"); !near(r.Output, 0.8, 0.05) {
			t.Errorf("phase %d: reservation 2 output %.3f Gbps", phase, r.Output)
		}
		// Best effort scavenges the rest of the 40 Gbps output (≈38.7).
		if r := get(phase, "Best effort"); r.Output < 35 || r.Output > 39.5 {
			t.Errorf("phase %d: best effort output %.3f Gbps", phase, r.Output)
		}
	}
	// Phases 1–2: reservation 1 receives its 0.4 Gbps.
	for phase := 1; phase <= 2; phase++ {
		if r := get(phase, "Reservation 1"); !near(r.Output, 0.4, 0.05) {
			t.Errorf("phase %d: reservation 1 output %.3f Gbps", phase, r.Output)
		}
	}
	// Phase 2–3: unauthentic Colibri is filtered to zero.
	for phase := 2; phase <= 3; phase++ {
		if r := get(phase, "Colibri unauth."); r.Output != 0 {
			t.Errorf("phase %d: unauthentic output %.3f Gbps", phase, r.Output)
		}
	}
	// Phase 3: the overusing reservation 1 is clamped to ≈ its guarantee.
	if r := get(3, "Reservation 1"); r.Output > 0.55 || r.Output < 0.3 {
		t.Errorf("phase 3: overuser clamped to %.3f Gbps, want ≈0.4", r.Output)
	}
	if !strings.Contains(FormatTable2(rows), "Table 2") {
		t.Error("FormatTable2 header missing")
	}
}

func TestAppendixEPayloadIndependence(t *testing.T) {
	rows := RunAppendixE([]int{0, 1000}, 50*time.Millisecond)
	rate := map[string]map[int]float64{}
	for _, r := range rows {
		if rate[r.Component] == nil {
			rate[r.Component] = map[int]float64{}
		}
		rate[r.Component][r.PayloadBytes] = r.Mpps
	}
	for comp, byPayload := range rate {
		r0, r1000 := byPayload[0], byPayload[1000]
		if r0 <= 0 || r1000 <= 0 {
			t.Fatalf("%s: non-positive rates", comp)
		}
		// Payload size must not change the rate by more than ~2× (the paper
		// reports full independence; we allow copy-cost slack).
		ratio := r0 / r1000
		if ratio < 0.5 || ratio > 2.5 {
			t.Errorf("%s: payload dependence: %.3f vs %.3f Mpps", comp, r0, r1000)
		}
	}
	if !strings.Contains(FormatAppE(rows), "Appendix E") {
		t.Error("FormatAppE header missing")
	}
}
