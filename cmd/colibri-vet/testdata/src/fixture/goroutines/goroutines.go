// Package goroutines is the fan-out-discipline fixture: unjoined go
// statements and channels without explicit capacity must be flagged;
// WaitGroup-joined spawns, result-collecting sends, channel-draining
// workers and bounded makes must not.
package goroutines

import "sync"

// FireAndForget spawns an unjoined literal: finding.
func FireAndForget(n *int) {
	go func() {
		_ = n
	}()
}

// Joined signals a WaitGroup: clean.
func Joined(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// Collected sends its result on a bounded channel: clean.
func Collected() int {
	ch := make(chan int, 1)
	go func() {
		ch <- 42
	}()
	return <-ch
}

// Worker drains a channel; the owner joins by closing it: clean.
func Worker(ch chan int) {
	go func() {
		for range ch {
		}
	}()
}

// leak never signals anything: spawning it is a finding.
func leak() {}

// SpawnNamed spawns the unjoined named function: finding.
func SpawnNamed() {
	go leak()
}

// SpawnOpaque spawns a function value the analyzer can't inspect: finding.
func SpawnOpaque(fn func()) {
	go fn()
}

// SuppressedSpawn is joined by process lifetime by contract: suppressed.
func SuppressedSpawn() {
	go leak() //colibri:allow(goroutines) — fixture: joined by process lifetime
}

// Unbounded makes a channel without a capacity: finding.
func Unbounded() chan int {
	return make(chan int)
}

// Bounded states its capacity: clean.
func Bounded() chan int {
	return make(chan int, 8)
}
