package experiments

import (
	"strings"
	"testing"
)

// smallScale keeps unit-test runs fast: one 50-AS ISD, short duration.
func smallScale() ScaleConfig {
	return ScaleConfig{
		ASes:       50,
		Flows:      60,
		DurationNs: 10e6,
		Seed:       5,
	}
}

// TestRunScaleDeterministic pins the whole experiment, clock included:
// under a stepped virtual clock, two RunScale invocations must produce
// byte-identical formatted output. (Run's equivalence to the global-order
// oracle on this scenario is netsim's TestScaleEquivalence.)
func TestRunScaleDeterministic(t *testing.T) {
	run := func() (string, ScaleRow) {
		restore := SetClock(StepClock(0, 1e6))
		defer restore()
		r := RunScale(smallScale())
		return FormatScale([]ScaleRow{r}), r
	}
	a, r := run()
	if b, _ := run(); a != b {
		t.Fatalf("RunScale not deterministic under virtual clock:\n--- run1\n%s\n--- run2\n%s", a, b)
	}
	if r.Shards != 50 {
		t.Fatalf("shards = %d, want 50 (one per AS)", r.Shards)
	}
	if r.Pkts == 0 || r.Events == 0 {
		t.Fatalf("empty run: %+v", r)
	}
	if !strings.Contains(a, "| 50 | 50 | 60 |") {
		t.Fatalf("missing run row:\n%s", a)
	}
}
