package experiments

import "time"

// This file is the package's single clock seam. Every experiment measures
// elapsed time through nowNs, so the wall clock is read in exactly one
// audited place: by default measurements are real (the figures report real
// processing times), while tests inject a virtual clock with SetClock to
// make a fixed seed yield byte-identical figure data — the property the
// chaos/fairness experiments and colibri-vet's determinism check protect.

// clockBase anchors the monotonic reading so nowNs never goes backwards
// under wall-clock adjustments.
var clockBase = time.Now() //colibri:allow(determinism) — sole wall-clock anchor

// nowNs returns the current measurement timestamp in nanoseconds. All
// experiment timing must go through this seam.
var nowNs = func() int64 {
	return time.Since(clockBase).Nanoseconds() //colibri:allow(determinism) — sole wall-clock read
}
