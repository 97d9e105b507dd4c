package experiments

import "testing"

// smallStorm is the CI-sized storm: enough flows to fill several batch
// waves, small enough to run in seconds.
func smallStorm() StormConfig {
	return StormConfig{
		Seed:      11,
		Flows:     2_000,
		BatchSize: 512,
	}
}

// TestStormFailover drives the renewal storm end to end and checks the §3.2
// / §4.2 contract: the full fleet renews in one wave through the batched
// path, the crash demotes every flow exactly once, the recovery re-promotes
// every flow, and no AS ever over-admits a SegR.
func TestStormFailover(t *testing.T) {
	restore := SetClock(StepClock(0, 1000))
	defer restore()
	res, err := RunStorm(smallStorm())
	if err != nil {
		t.Fatal(err)
	}
	row := res.Row
	flows := uint64(res.Config.Flows)
	if row.StormRenewed != flows {
		t.Errorf("storm wave renewed %d of %d flows", row.StormRenewed, flows)
	}
	if row.Demotions != flows {
		t.Errorf("Demotions = %d, want %d (whole fleet falls back)", row.Demotions, flows)
	}
	if row.Promotions != flows {
		t.Errorf("Promotions = %d, want %d (whole fleet re-promoted)", row.Promotions, flows)
	}
	if row.Failures == 0 {
		t.Error("no failed renewal attempts despite the crash window")
	}
	if row.OverAdmitted {
		t.Error("over-admission: a CPlane charged a SegR beyond its active bandwidth")
	}
	if row.RenewPerSec <= 0 {
		t.Errorf("RenewPerSec = %f", row.RenewPerSec)
	}
}

// TestStormDeterministic pins seed-determinism of the whole scenario,
// including the formatted report, under the step clock.
func TestStormDeterministic(t *testing.T) {
	run := func() string {
		restore := SetClock(StepClock(0, 1000))
		defer restore()
		res, err := RunStorm(smallStorm())
		if err != nil {
			t.Fatal(err)
		}
		return FormatStorm(res)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two seeded storm runs differ under the step clock:\n--- a\n%s--- b\n%s", a, b)
	}
}
