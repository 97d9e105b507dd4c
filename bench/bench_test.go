package main

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// smoke is the self-tests' run: populations and op counts at about 1 %,
// a fixed number of rounds so that every count repeats exactly, traced so
// that plain and traced rounds and the program's counters are all covered.
func smoke(t *testing.T, name string, seed int64) *result {
	t.Helper()
	sp, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(sp.scaled(0.01), runConfig{seed: seed, rounds: 4, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%s seed %d: %d of %d ops failed: %v", name, seed, res.Failed, res.Attempted, res.Failures)
	}
	return res
}

// Same seed twice ⇒ identical inputs, ops, deliveries, drops, refusals and
// program counters; another seed ⇒ another session permutation and op tape.
func TestSeedDeterminesRun(t *testing.T) {
	for _, sp := range specs {
		a, b, c := smoke(t, sp.name, 1), smoke(t, sp.name, 1), smoke(t, sp.name, 2)
		if diffs := countDiffs(a, b); len(diffs) != 0 {
			t.Errorf("%s: seed 1 did not repeat: %v", sp.name, diffs)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", sp.name)
		}
		if a.Counts.Delivered != a.Counts.Conforming || a.Counts.SetupsRefused != a.Counts.RefusedWanted {
			t.Errorf("%s: counts do not add up: %+v", sp.name, a.Counts)
		}
		if sp.hostileEvery > 0 && a.Counts.Hostile == [numHostile]int64{} {
			t.Errorf("%s: no hostile packet was injected", sp.name)
		}
	}
}

// Every metric BENCHMARK.json names is emitted, with its unit, by every
// workload, and nothing unnamed is; the workloads are the harness's.
func TestBenchmarkJSONMatches(t *testing.T) {
	var bj benchmarkJSON
	if err := readJSON("../BENCHMARK.json", &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(specs))
	}
	for i, wl := range bj.Workloads {
		if wl.Name != specs[i].name || wl.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the harness %q (%q)", i, wl.Name, wl.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(kind string, got []boundedMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if (metricDef{m.Name, m.Unit, m.Better}) != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the harness %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	var setupBound, maxBound float64
	for _, m := range bj.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s must carry the largest bound: %v < %v", setupBound, maxBound)
	}

	var named []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		named = append(named, d.name)
	}
	sort.Strings(named)
	for _, sp := range specs {
		res := smoke(t, sp.name, 1)
		var emitted []string
		for name, m := range res.Metrics {
			emitted = append(emitted, name)
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", sp.name, name, m.Value)
			}
		}
		sort.Strings(emitted)
		if !reflect.DeepEqual(emitted, named) {
			t.Errorf("%s emits\n%v\nBENCHMARK.json names\n%v", sp.name, emitted, named)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if u := res.Metrics[d.name].Unit; u != d.unit {
				t.Errorf("%s: %s has unit %q, want %q", sp.name, d.name, u, d.unit)
			}
		}
		for _, d := range endToEnd {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.name, d.name, res.Metrics[d.name].Value)
			}
		}
		for _, traced := range []bool{false, true} {
			res.Traced = traced
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if got := len(contractResult(res)["metrics"].(map[string]metric)); got != want {
				t.Errorf("%s traced=%v: contract result has %d metrics, want %d", sp.name, traced, got, want)
			}
		}
	}
}

// A fault seeded into the harness's expectation must make the run
// incorrect: the gates compare against what was injected, not against
// whatever the program did.
func TestGatesCatchSeededFaults(t *testing.T) {
	sp, err := specByName("pkt-wide")
	if err != nil {
		t.Fatal(err)
	}
	faults := map[string]func(*world){
		"none":                       func(*world) {},
		"one replay not expected":    func(w *world) { w.counts.Hostile[hostileReplay]-- },
		"one delivery not counted":   func(w *world) { w.counts.Delivered-- },
		"one refusal too many asked": func(w *world) { w.counts.RefusedWanted++ },
	}
	for name, seed := range faults {
		small := sp.scaled(0.01)
		w, err := newWorld(small, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := newMeter(small)
		for r := 0; r < 3; r++ {
			w.round(r, m, false)
		}
		seed(w)
		w.verify()
		if caught := w.failed > 0; caught != (name != "none") {
			t.Errorf("fault %q: failed=%d %v", name, w.failed, w.failures)
		}
	}
}

// Self time is a span's duration minus what its direct children cover.
func TestSelfTimes(t *testing.T) {
	//  0 op        [0, 100]
	//  1 ├ request [10, 70]
	//  2 │ └ call  [20, 60]
	//  3 │   └ call [30, 50]
	//  4 └ install [75, 95]
	//  5 other op  [200, 230]
	spans := []span{
		{start: 0, end: 100, parent: noSpan},
		{start: 10, end: 70, parent: 0},
		{start: 20, end: 60, parent: 1},
		{start: 30, end: 50, parent: 2},
		{start: 75, end: 95, parent: 0},
		{start: 200, end: 230, parent: noSpan},
	}
	want := []int64{20, 20, 20, 20, 20, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// The self times of an op's spans add up to the op.
	var sum int64
	for _, s := range selfTimes(spans)[:5] {
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times of op 0 sum to %d, want 100", sum)
	}
	r := newRecorder(8)
	op := r.beginOp(spSetup)
	child := r.begin(spRequest)
	if r.spans[child].parent != op || r.spans[child].op != r.spans[op].op {
		t.Errorf("child span not attached to its op: %+v", r.spans[child])
	}
	r.end(child)
	r.endOp(op)
	if r.cur != noSpan || r.on {
		t.Errorf("recorder left open: cur=%d on=%v", r.cur, r.on)
	}
}

// The histogram's quantiles stay within a bucket (1.6 %) of the exact ones.
func TestHistQuantiles(t *testing.T) {
	var h hist
	var vals []float64
	x := uint64(1)
	for i := 0; i < 50000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := 3000 + int64(x>>33)%9000 + int64(i%100)*int64(i%100)*7
		h.record(v)
		vals = append(vals, float64(v))
	}
	for _, q := range []float64{0.25, 0.5, 0.95, 0.99} {
		got, want := h.quantile(q), quantileOf(vals, q)
		if math.Abs(got-want)/want > 0.017 {
			t.Errorf("quantile(%v) = %v, exact %v", q, got, want)
		}
	}
	sort.Float64s(vals)
	var sum float64
	keep := int(0.95 * float64(len(vals)))
	for _, v := range vals[:keep] {
		sum += v
	}
	if got, want := h.trimmedMean(0.95), sum/float64(keep); math.Abs(got-want)/want > 0.01 {
		t.Errorf("trimmedMean = %v, exact %v", got, want)
	}
}

func TestDiffVerdict(t *testing.T) {
	lower := boundedMetric{Name: "pkt_fast_p50_us", Better: "lower", Bound: 0.1}
	higher := boundedMetric{Name: "pkt_fast_mpps", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		old, new float64
		m        boundedMetric
		noisy    bool
		want     string
	}{
		{6, 6.5, lower, false, "within-bound"},
		{6, 6.7, lower, false, "regressed"},
		{6, 5.0, lower, false, "improved"},
		{0.17, 0.15, higher, false, "regressed"},
		{0.17, 0.20, higher, false, "improved"},
		{6, 9, lower, true, "unresolved"},
	} {
		if got := diffVerdict(c.old, c.new, c.m, c.noisy); got != c.want {
			t.Errorf("diffVerdict(%v → %v, %s) = %s, want %s", c.old, c.new, c.m.Name, got, c.want)
		}
	}
}
