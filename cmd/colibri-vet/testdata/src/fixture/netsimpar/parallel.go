// Package netsim (directory netsimpar) is the parallel-executor determinism
// fixture: handlers that netsim's engine runs on shardpool workers
// must not wait on the wall clock or race multi-channel selects. The bad
// shapes below must be flagged, the single-receive worker loop must not.
package netsim

import "time"

// BadWorkerClock reads the wall clock inside a goroutine-spawned handler:
// finding (time.Now).
func BadWorkerClock(done chan int64) {
	go func() {
		done <- time.Now().UnixNano()
	}()
}

// BadSleep waits on a real duration between events: finding (time.Sleep).
func BadSleep() {
	time.Sleep(time.Millisecond)
}

// BadTimerArm arms a wall-clock timer: finding (time.After).
func BadTimerArm(work chan func()) {
	go func() {
		<-time.After(time.Second)
		<-work
	}()
}

// BadMultiSelect races two ready channels — the runtime picks the winner at
// random: finding (select over 2 channels).
func BadMultiSelect(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return -v
	}
}

// GoodWorkerLoop is the deterministic worker-pool shape shardpool uses —
// one blocking receive per goroutine: clean.
func GoodWorkerLoop(work chan func()) {
	go func() {
		for fn := range work {
			fn()
		}
	}()
}

// GoodSingleSelect is a conditional receive (one comm clause plus default):
// clean.
func GoodSingleSelect(work chan func()) bool {
	select {
	case fn := <-work:
		fn()
		return true
	default:
		return false
	}
}

// SuppressedSleep documents an audited real-time wait: suppressed.
func SuppressedSleep() {
	time.Sleep(time.Microsecond) //colibri:allow(determinism) — fixture: audited wait
}
