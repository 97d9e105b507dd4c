package shardpool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestInlineModeRunsInOrder(t *testing.T) {
	var got []int
	p := New(1, func(shard int) { got = append(got, shard) })
	defer p.Close()
	p.Dispatch(4)
	p.Dispatch(2)
	want := []int{0, 1, 2, 3, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
}

func TestDispatchRunsEveryShardExactlyOnce(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		const n = 64
		var counts [n]atomic.Int32
		p := New(workers, func(shard int) { counts[shard].Add(1) })
		const batches = 10
		for b := 0; b < batches; b++ {
			p.Dispatch(n)
		}
		p.Close()
		for i := range counts {
			if c := counts[i].Load(); c != batches {
				t.Fatalf("workers=%d: shard %d ran %d times, want %d", workers, i, c, batches)
			}
		}
	}
}

// TestCloseJoinsWorkers pins that Close returns only after the pool's
// goroutines have exited, so a caller that closes its pool leaves none
// behind (netsim.Sim.Run relies on it).
func TestCloseJoinsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(4, func(int) {})
	p.Dispatch(8)
	p.Close()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after Close, %d before New", after, before)
	}
}

func TestDispatchZeroAndPartial(t *testing.T) {
	var ran atomic.Int32
	p := New(4, func(int) { ran.Add(1) })
	defer p.Close()
	p.Dispatch(0)
	if ran.Load() != 0 {
		t.Fatalf("Dispatch(0) ran %d shards", ran.Load())
	}
	p.Dispatch(2) // fewer shards than workers
	if ran.Load() != 2 {
		t.Fatalf("Dispatch(2) ran %d shards, want 2", ran.Load())
	}
}

// TestPanicCarriesShardIndex pins the diagnostic contract: a pooled worker's
// panic surfaces on the dispatcher as a WorkerPanic naming the shard whose
// run tripped it, with the original value preserved.
func TestPanicCarriesShardIndex(t *testing.T) {
	p := New(4, func(shard int) {
		if shard == 5 {
			panic("boom")
		}
	})
	defer p.Close()
	defer func() {
		wp, ok := recover().(WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want WorkerPanic", wp)
		}
		if wp.Shard != 5 || wp.Val != "boom" {
			t.Fatalf("WorkerPanic = %+v, want Shard=5 Val=boom", wp)
		}
		if want := "shardpool: panic on shard 5: boom"; wp.Error() != want {
			t.Fatalf("Error() = %q, want %q", wp.Error(), want)
		}
	}()
	p.Dispatch(8)
	t.Fatal("Dispatch returned without re-raising")
}

// TestPanicDuringFinalBarrier is the regression for a panic raised by the
// LAST shard to finish a dispatch — the one whose wg.Done releases the
// barrier. The panicking shard spins until every other shard has completed,
// so the capture races directly with the dispatcher's wg.Wait wake-up; the
// panic must still be observed (the mutex write happens before Done, which
// happens before Wait returns) and must carry the shard index.
func TestPanicDuringFinalBarrier(t *testing.T) {
	const n = 8
	var done atomic.Int32
	p := New(4, func(shard int) {
		if shard != n-1 {
			done.Add(1)
			return
		}
		for done.Load() != n-1 {
			// Spin: shard n-1 must be the final Done of the barrier.
		}
		panic("last shard")
	})
	defer p.Close()
	defer func() {
		wp, ok := recover().(WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want WorkerPanic", wp)
		}
		if wp.Shard != n-1 || wp.Val != "last shard" {
			t.Fatalf("WorkerPanic = %+v, want Shard=%d Val=%q", wp, n-1, "last shard")
		}
	}()
	p.Dispatch(n)
	t.Fatal("Dispatch returned without re-raising")
}

func TestPanicReraisedOnDispatcher(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers, func(shard int) {
			if shard == 3 {
				panic("shard 3 blew up")
			}
		})
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("workers=%d: Dispatch did not re-raise the shard panic", workers)
				}
			}()
			p.Dispatch(8)
		}()
		// The pool must stay usable after a captured panic.
		if workers > 1 {
			p.Dispatch(2)
		}
		p.Close()
	}
}
