package experiments

import (
	"strings"
	"testing"
)

// TestCPlaneByteIdentical pins the control-plane sweep to the package's
// determinism contract: under the step clock, two runs of the same grid
// produce byte-identical tables (virtual reservation clock, sorted shard
// iteration, no wall-clock reads outside the seam).
func TestCPlaneByteIdentical(t *testing.T) {
	run := func() string {
		restore := SetClock(StepClock(0, 1000))
		defer restore()
		rows, err := RunCPlane(CPlaneConfig{Sizes: []int{200}, Shards: []int{1, 4}, Waves: 2})
		if err != nil {
			t.Fatal(err)
		}
		return FormatCPlane(rows)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two cplane runs differ under the step clock:\n--- a\n%s--- b\n%s", a, b)
	}
}

func TestCPlaneSweepSanity(t *testing.T) {
	rows, err := RunCPlane(CPlaneConfig{
		Sizes:  []int{500},
		Shards: []int{1, 4},
		Waves:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Rejected != 0 {
			t.Errorf("%d shards: %d rejected EER setups, want 0", r.Shards, r.Rejected)
		}
		if r.EERs != 500 || r.SegRs != 50 {
			t.Errorf("%d shards: population %d EERs / %d SegRs, want 500/50", r.Shards, r.EERs, r.SegRs)
		}
		if r.RenewNs <= 0 || r.RenewPerSec <= 0 {
			t.Errorf("%d shards: non-positive renewal timing: %+v", r.Shards, r)
		}
	}
	out := FormatCPlane(rows)
	if !strings.Contains(out, "| 4 | 50 | 500 |") {
		t.Errorf("table missing the 4-shard row:\n%s", out)
	}
}
