// engine.go — the execution engine: conservative safe-window
// synchronization (classic PDES lookahead) over the per-shard heaps.
//
// Each round opens the window [T, T+lookahead), where T is the earliest
// pending event and lookahead is the minimum cross-shard link latency, and
// drains every active shard's heap up to the window end in key order. Within
// the window, shards are independent: a cross-shard child is always
// scheduled ≥ lookahead in the future (enforced by Shard.Cross), so it lands
// at or after the window end and waits in the scheduling shard's outbox;
// same-shard children landing inside the window are drained by the same
// pass. The drains run on a shardpool.Pool of min(GOMAXPROCS, shards)
// workers — inline, on the caller's goroutine, at one worker — and a
// single-threaded merge then moves the outboxes into their target heaps.
// Event keys come from shard-owned channel counters, so the trace and final
// state are those of one global heap run in key order, at every GOMAXPROCS
// (DESIGN.md §6). A single-shard simulation is one window on one heap.
package netsim

import (
	"container/heap"
	"math"
	"runtime"

	"colibri/internal/shardpool"
	"colibri/internal/telemetry"
)

// engineTelemetry holds the engine's instruments: safe-window and occupancy
// visibility for scale runs, recorded by the coordinator between windows.
// None of it feeds back into the simulation.
type engineTelemetry struct {
	windows      *telemetry.Counter
	safeWindowNs *telemetry.Gauge
	activeShards *telemetry.Gauge
	windowEvents *telemetry.Histogram
}

// SetTelemetry attaches the engine's instruments:
// netsim.par.{windows,safe_window_ns,active_shards,window_events}. Nil
// disables (default).
func (s *Sim) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tel = nil
		return
	}
	s.tel = &engineTelemetry{
		windows:      reg.Counter("netsim.par.windows"),
		safeWindowNs: reg.Gauge("netsim.par.safe_window_ns"),
		activeShards: reg.Gauge("netsim.par.active_shards"),
		windowEvents: reg.Histogram("netsim.par.window_events"),
	}
}

// Run executes events until the queue empties or virtual time exceeds until
// (0 = run to completion) and returns the final time. Events at exactly
// until still run; later ones stay queued, so a later Run resumes.
//
// The result — final state, event trace, return value — is independent of
// GOMAXPROCS provided shard discipline holds: every piece of state is owned
// by one shard and only touched by that shard's events (cross-shard ports
// are the supported interaction channel). A panic in an event callback is
// re-raised here with its original value.
func (s *Sim) Run(until int64) int64 {
	workers := min(runtime.GOMAXPROCS(0), len(s.shards))
	var (
		active []*Shard
		chunk  int
		end    int64
	)
	pool := shardpool.New(workers, func(i int) {
		for _, sh := range active[i*chunk : min((i+1)*chunk, len(active))] {
			sh.drain(end)
		}
	})
	s.running = true
	defer func() {
		s.running, s.inWindow = false, false
		pool.Close()
		if r := recover(); r != nil {
			if wp, ok := r.(shardpool.WorkerPanic); ok {
				r = wp.Val
			}
			panic(r)
		}
	}()

	for {
		// Earliest pending event across all shard heaps.
		var T int64
		found := false
		for _, sh := range s.shards {
			if len(sh.pq) > 0 && (!found || sh.pq[0].At < T) {
				T = sh.pq[0].At
				found = true
			}
		}
		if !found {
			return s.now
		}
		if until > 0 && T > until {
			s.now = until
			return s.now
		}
		end = T + s.lookahead
		if s.lookahead == math.MaxInt64 || end < T { // no cross edges / overflow
			end = math.MaxInt64
		}
		if until > 0 && end > until+1 {
			end = until + 1
		}
		s.now = T // shards read this through Shard.Now; stable during the window

		active = active[:0]
		for _, sh := range s.shards {
			if len(sh.pq) > 0 && sh.pq[0].At < end {
				active = append(active, sh)
			}
		}
		var before uint64
		if s.tel != nil {
			before = s.Executed()
		}
		s.inWindow = true
		chunk = len(active)/(workers*4) + 1
		pool.Dispatch((len(active) + chunk - 1) / chunk)
		s.inWindow = false

		// Deterministic merge: keys were assigned by the source shards, so
		// insertion order is irrelevant, and Shard.Cross's lookahead check
		// makes every entry land at or beyond the window end.
		for _, sh := range active {
			s.now = max(s.now, sh.now)
			for _, ev := range sh.outbox {
				heap.Push(&s.shards[ev.Dst].pq, ev)
			}
			sh.outbox = sh.outbox[:0]
		}
		if s.tel != nil {
			s.tel.windows.Inc()
			s.tel.safeWindowNs.Set(end - T)
			s.tel.activeShards.Set(int64(len(active)))
			s.tel.windowEvents.Observe(int64(s.Executed() - before))
		}
	}
}

// drain executes this shard's events with timestamps before end, in key
// order. It runs on one worker and touches nothing outside the shard but its
// outbox, which the coordinator merges after the barrier.
func (sh *Shard) drain(end int64) {
	for len(sh.pq) > 0 && sh.pq[0].At < end {
		ev := heap.Pop(&sh.pq).(*event)
		sh.now = ev.At
		sh.executed++
		if sh.sim.traceOn {
			sh.trace = append(sh.trace, ev.TraceEntry)
		}
		ev.fn()
	}
}
