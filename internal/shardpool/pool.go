// Package shardpool runs per-shard work items on a small persistent pool of
// goroutines — the fan-out engine of the sharded data plane (router.Sharded,
// gateway.Sharded) and of netsim's safe-window drain (netsim.Sim.Run).
// Workers pull shard indices from a single work channel (one receive, no
// select, so no scheduler-order dependence leaks into shard state), a
// WaitGroup forms the batch barrier, and worker panics are captured and
// re-raised on the dispatching goroutine so callers see the same panic an
// inline run would raise.
//
// Shard ownership is the caller's contract: run(shard) must touch only state
// owned by that shard (plus concurrency-safe telemetry). The channel send
// and the WaitGroup barrier establish the happens-before edges that hand a
// shard's state from the dispatcher to a worker and back, so a data-race-free
// run function makes the whole dispatch race-free.
package shardpool

import (
	"fmt"
	"sync"
)

// WorkerPanic is the value Dispatch re-raises when run(shard) panicked on a
// pool worker: the original panic value wrapped with the originating shard
// index, so a crash in a million-flow fan-out names the shard whose state
// tripped it. Inline mode (workers == 1) panics on the caller's goroutine
// with the original value and stack, exactly like a sequential run.
type WorkerPanic struct {
	Shard int // index of the shard whose run panicked
	Val   any // the original panic value
}

func (wp WorkerPanic) Error() string {
	return fmt.Sprintf("shardpool: panic on shard %d: %v", wp.Shard, wp.Val)
}

// Pool dispatches shard indices to a fixed set of workers. Dispatch is not
// safe for concurrent use (one batch at a time, like a data-plane front end);
// the pool goroutines themselves are persistent and idle between batches.
type Pool struct {
	run     func(shard int)
	workers int
	// work is nil in inline mode (workers == 1): Dispatch then runs shards
	// on the calling goroutine, which is both faster and exactly the
	// single-core configuration the normalized benchmarks baseline against.
	work   chan int
	wg     sync.WaitGroup
	exited sync.WaitGroup // Close's join: one Done per worker goroutine

	panicMu  sync.Mutex
	panicVal any
	panicked bool
	closed   bool
}

// New builds a pool of `workers` goroutines executing run. workers < 1 is
// clamped to 1; a one-worker pool spawns no goroutines and runs inline.
// Close releases the goroutines when the pool is no longer needed.
func New(workers int, run func(shard int)) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{run: run, workers: workers}
	if workers == 1 {
		return p
	}
	// Buffered so the dispatcher can enqueue a burst of shards without
	// rendezvousing on each send; workers drain at their own pace.
	p.work = make(chan int, 4*workers)
	p.exited.Add(workers)
	for i := 0; i < workers; i++ {
		go p.loop(p.work)
	}
	return p
}

func (p *Pool) loop(work <-chan int) {
	defer p.exited.Done()
	for sh := range work {
		func() {
			defer func() {
				if r := recover(); r != nil {
					p.panicMu.Lock()
					if !p.panicked {
						p.panicked = true
						p.panicVal = WorkerPanic{Shard: sh, Val: r}
					}
					p.panicMu.Unlock()
				}
				p.wg.Done()
			}()
			p.run(sh)
		}()
	}
}

// Dispatch runs run(0) … run(n-1) across the pool and returns when all have
// finished. In inline mode the shards run in index order on the caller's
// goroutine; otherwise assignment of shards to workers is scheduling-
// dependent (shard state must not care, per the ownership contract). If any
// run panicked, the first captured panic is re-raised here after the
// barrier, wrapped as a WorkerPanic naming the originating shard.
//
//colibri:nomalloc
func (p *Pool) Dispatch(n int) {
	if p.work == nil {
		for sh := 0; sh < n; sh++ {
			p.run(sh)
		}
		return
	}
	p.wg.Add(n)
	for sh := 0; sh < n; sh++ {
		p.work <- sh
	}
	p.wg.Wait()
	// wg.Wait happens-after every wg.Done, so the plain reads are ordered.
	if p.panicked {
		v := p.panicVal
		p.panicked, p.panicVal = false, nil
		panic(v)
	}
}

// Close stops the pool's goroutines and returns once they have exited. The
// pool must be idle (no Dispatch in flight); a closed pool must not be
// dispatched again. Close is idempotent but not safe for concurrent use with
// itself or Dispatch.
func (p *Pool) Close() {
	if p.work != nil && !p.closed {
		p.closed = true
		close(p.work)
		p.exited.Wait()
	}
}
