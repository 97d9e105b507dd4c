package experiments

import "sync/atomic"

// SetClock replaces the measurement clock (e.g. with StepClock for
// reproducible figure data) and returns a function restoring the previous
// one. Not safe for use concurrently with running experiments.
func SetClock(f func() int64) (restore func()) {
	old := nowNs
	nowNs = f
	return func() { nowNs = old }
}

// StepClock returns a deterministic virtual clock that advances stepNs on
// every reading, starting at startNs. Under such a clock every timed loop
// runs a fixed number of iterations and every measured duration is exact,
// so two runs with equal seeds produce identical bytes. The step is atomic:
// even Fig. 6's parallel workers stay reproducible, because the number of
// readings below any deadline — and therefore the total operation count —
// is independent of how goroutines interleave them.
func StepClock(startNs, stepNs int64) func() int64 {
	var t atomic.Int64
	t.Store(startNs)
	return func() int64 {
		return t.Add(stepNs)
	}
}
