package gateway

import "time"

// This file is the package's single clock seam. The only wall-clock reads in
// the gateway are the telemetry phase timers in BuildBatch; routing them
// through monoNow concentrates the audited time.Now call sites in one place
// for colibri-vet's determinism check.

// clockBase anchors the monotonic reading so monoNow never goes backwards
// under wall-clock adjustments.
var clockBase = time.Now()

// monoNow returns the current monotonic timestamp in nanoseconds. All
// gateway timing must go through this seam.
func monoNow() int64 {
	return time.Since(clockBase).Nanoseconds()
}
