// shard.go — the sharded event core shared by both execution engines.
//
// Every event is addressed to one shard (a logical process in PDES terms:
// typically one simulated AS/node and all state it owns) and carries the
// deterministic ordering key
//
//	(at, dst shard, src shard, channel sequence)
//
// where the channel sequence is a per-(src,dst) counter owned by the
// *scheduling* shard. Because a shard's events always execute in key order —
// globally in the sequential engine, shard-locally in the parallel one — and
// only the owning shard ever increments its channel counters, key assignment
// is identical under both engines. That is the whole determinism argument:
// identical keys ⇒ identical execution order per shard ⇒ identical state and
// identical child keys, by induction over windows (DESIGN.md §6).
//
// Single-shard simulations (everything defaults to the root shard) collapse
// to the classic (time, FIFO) tie-break of the original sequential engine:
// all events share the root self-channel, whose sequence is exactly the old
// global counter.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
)

// Sim is the discrete-event simulator. Build topologies single-threaded,
// then execute with Run (sequential) or RunParallel (safe-window parallel);
// both produce bit-identical event traces and final state. Nodes run inside
// event callbacks on their owning shard.
type Sim struct {
	now    int64
	pq     eventQueue // sequential engine: one global heap over all shards
	shards []*Shard
	cur    *Shard // shard whose event is executing (sequential engine); root otherwise

	// lookahead is the conservative synchronization bound: the minimum
	// cross-shard scheduling delay (classic PDES lookahead), maintained as
	// the minimum latency over cross-shard ports and SetLookahead calls.
	// math.MaxInt64 means "no cross-shard edges declared".
	lookahead int64

	running  bool // inside Run or RunParallel
	par      bool // parallel redistribution active (events live in shard heaps)
	inWindow bool // workers are executing a safe window right now

	traceOn bool
	tel     *parTelemetry
}

// NewSim creates a simulator at time 0 with a single root shard.
func NewSim() *Sim {
	s := &Sim{lookahead: math.MaxInt64}
	root := &Shard{sim: s, id: 0}
	s.shards = []*Shard{root}
	s.cur = root
	return s
}

// Root returns the default shard, owner of everything not explicitly placed.
func (s *Sim) Root() *Shard { return s.shards[0] }

// NewShard adds a shard (one unit of parallel state — typically one
// simulated AS). Shards must be created during topology construction,
// before Run/RunParallel.
func (s *Sim) NewShard() *Shard {
	if s.running {
		panic("netsim: NewShard during Run")
	}
	sh := &Shard{sim: s, id: int32(len(s.shards))}
	s.shards = append(s.shards, sh)
	return sh
}

// NumShards returns the shard count (≥ 1).
func (s *Sim) NumShards() int { return len(s.shards) }

// SetLookahead declares a lower bound on cross-shard scheduling delays (ns),
// tightening the safe window if smaller than the port-derived minimum.
// Cross-shard ports declare their latency automatically; call this only when
// using Shard.Cross directly.
func (s *Sim) SetLookahead(ns int64) {
	if ns < 1 {
		panic("netsim: lookahead must be >= 1ns")
	}
	s.noteLookahead(ns)
}

func (s *Sim) noteLookahead(ns int64) {
	if s.running {
		panic("netsim: declare cross-shard links before Run")
	}
	if ns < s.lookahead {
		s.lookahead = ns
	}
}

// Now returns the current virtual time in nanoseconds. During RunParallel of
// a multi-shard simulation, event callbacks must use their Shard's Now
// instead (the global clock only advances window-by-window there); calling
// Sim.Now from inside a safe window panics to make that misuse loud.
func (s *Sim) Now() int64 {
	if s.inWindow && len(s.shards) > 1 {
		panic("netsim: Sim.Now inside a parallel window — use Shard.Now")
	}
	return s.now
}

// At schedules fn at absolute time t (≥ now) on the currently executing
// shard (the root shard outside event callbacks). Multi-shard parallel
// callbacks must use Shard.At.
func (s *Sim) At(t int64, fn func()) {
	if s.inWindow && len(s.shards) > 1 {
		panic("netsim: Sim.At inside a parallel window — use Shard.At")
	}
	s.cur.At(t, fn)
}

// After schedules fn after a delay on the currently executing shard.
func (s *Sim) After(d int64, fn func()) { s.At(s.now+d, fn) }

// Executed returns the total number of events executed so far.
func (s *Sim) Executed() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.executed
	}
	return n
}

// Shard is one unit of parallel simulation state. All state a shard's event
// callbacks touch (nodes, output ports, fault plans) must belong to that
// shard; cross-shard interaction flows exclusively through Cross-scheduled
// events (which ports issue for packet delivery). Methods are safe to call
// from topology-construction code and from the shard's own event callbacks;
// they are NOT safe to call from other shards' callbacks during RunParallel.
type Shard struct {
	sim *Sim
	id  int32
	now int64

	winEnd         int64      // parallel engine: exclusive bound of the current window
	pq             eventQueue // parallel engine: shard-local heap
	outbox         []*event   // parallel engine: cross-shard events awaiting merge
	ch             []uint64   // next channel sequence, indexed by destination shard
	executed       uint64
	windowExecuted uint64 // events executed in the current window (telemetry)
	trace          []TraceEntry
}

// ID returns the shard's index (root = 0).
func (sh *Shard) ID() int { return int(sh.id) }

// Sim returns the owning simulator.
func (sh *Shard) Sim() *Sim { return sh.sim }

// Now returns the shard's current virtual time: the timestamp of the event
// being executed, never behind the global clock.
func (sh *Shard) Now() int64 {
	if sh.now > sh.sim.now {
		return sh.now
	}
	return sh.sim.now
}

// At schedules fn on this shard at absolute time t (clamped to Now).
func (sh *Shard) At(t int64, fn func()) {
	if base := sh.Now(); t < base {
		t = base
	}
	sh.schedule(&event{at: t, dst: sh.id, src: sh.id, seq: sh.nextSeq(sh.id), fn: fn})
}

// After schedules fn on this shard after a delay.
func (sh *Shard) After(d int64, fn func()) { sh.At(sh.Now()+d, fn) }

// Cross schedules fn on shard dst at absolute time t. From inside event
// callbacks, t must respect the simulator's lookahead (t ≥ now + lookahead):
// that bound is what lets the parallel engine execute shards independently
// within a safe window, so violating it panics — identically under both
// engines, keeping even failure behaviour engine-independent.
func (sh *Shard) Cross(dst *Shard, t int64, fn func()) {
	if dst.sim != sh.sim {
		panic("netsim: Cross between different simulators")
	}
	if dst == sh {
		sh.At(t, fn)
		return
	}
	if base := sh.Now(); t < base {
		t = base
	}
	if sh.sim.running {
		la := sh.sim.lookahead
		if la == math.MaxInt64 {
			panic("netsim: cross-shard scheduling without a declared lookahead (create a cross-shard port or call SetLookahead)")
		}
		if t < sh.now+la {
			panic(fmt.Sprintf("netsim: cross-shard event at t=%d violates lookahead %d (shard %d now %d)",
				t, la, sh.id, sh.now))
		}
	}
	ev := &event{at: t, dst: dst.id, src: sh.id, seq: sh.nextSeq(dst.id), fn: fn}
	if sh.sim.par {
		sh.outbox = append(sh.outbox, ev)
	} else {
		heap.Push(&sh.sim.pq, ev)
	}
}

// CrossAfter schedules fn on shard dst after delay d (≥ lookahead).
func (sh *Shard) CrossAfter(dst *Shard, d int64, fn func()) { sh.Cross(dst, sh.Now()+d, fn) }

// schedule inserts a self-addressed event into whichever heap the active
// engine reads: the shard-local one during RunParallel (only the owning
// worker touches it), the global one otherwise.
func (sh *Shard) schedule(ev *event) {
	if sh.sim.par {
		heap.Push(&sh.pq, ev)
	} else {
		heap.Push(&sh.sim.pq, ev)
	}
}

// nextSeq increments and returns the channel sequence toward dst. Channel
// counters are owned by the scheduling shard, so no synchronization is
// needed and assignment order is the shard's deterministic execution order.
func (sh *Shard) nextSeq(dst int32) uint64 {
	for int(dst) >= len(sh.ch) {
		sh.ch = append(sh.ch, 0)
	}
	sh.ch[dst]++
	return sh.ch[dst]
}

// event is one scheduled callback with its deterministic ordering key.
type event struct {
	at  int64
	dst int32  // shard the callback executes on
	src int32  // shard that scheduled it
	seq uint64 // per-(src,dst) channel sequence (FIFO per channel)
	fn  func()
}

// less is the total event order: time, then destination shard, then source
// shard, then channel FIFO. The non-time components only break exact
// timestamp ties; they are engine-independent by construction.
func (e *event) less(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.dst != o.dst {
		return e.dst < o.dst
	}
	if e.src != o.src {
		return e.src < o.src
	}
	return e.seq < o.seq
}

type eventQueue []*event

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].less(q[j]) }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
