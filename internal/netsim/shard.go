// shard.go — the sharded event core the engine (engine.go) drains.
//
// Every event is addressed to one shard (a logical process in PDES terms:
// typically one simulated AS/node and all state it owns) and carries the
// deterministic ordering key
//
//	(at, dst shard, src shard, channel sequence)
//
// where the channel sequence is a per-(src,dst) counter owned by the
// *scheduling* shard. Because a shard's events always execute in key order
// and only the owning shard ever increments its channel counters, key
// assignment does not depend on how shards are spread over workers — nor
// on whether they run one global heap in key order, the test oracle. That
// is the whole determinism argument: identical keys ⇒ identical execution
// order per shard ⇒ identical state and identical child keys, by induction
// over windows (DESIGN.md §6).
//
// Single-shard simulations (everything defaults to the root shard) collapse
// to the classic (time, FIFO) tie-break: all events share the root
// self-channel, whose sequence is a plain global counter.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
)

// Sim is the discrete-event simulator. Build topologies single-threaded,
// then execute with Run. Nodes run inside event callbacks on their owning
// shard.
type Sim struct {
	now    int64
	shards []*Shard

	// lookahead is the conservative synchronization bound: the minimum
	// cross-shard scheduling delay (classic PDES lookahead), maintained as
	// the minimum latency over cross-shard ports and SetLookahead calls.
	// math.MaxInt64 means "no cross-shard edges declared".
	lookahead int64

	running  bool // inside Run
	inWindow bool // shards are draining a safe window right now

	traceOn bool
	tel     *engineTelemetry
}

// NewSim creates a simulator at time 0 with a single root shard.
func NewSim() *Sim {
	s := &Sim{lookahead: math.MaxInt64}
	s.shards = []*Shard{{sim: s, id: 0}}
	return s
}

// Root returns the default shard, owner of everything not explicitly placed.
func (s *Sim) Root() *Shard { return s.shards[0] }

// NewShard adds a shard (one unit of parallel state — typically one
// simulated AS). Shards must be created during topology construction,
// before Run.
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

func (s *Sim) noteLookahead(ns int64) {
	if s.running {
		panic("netsim: declare cross-shard links before Run")
	}
	if ns < s.lookahead {
		s.lookahead = ns
	}
}

// Now returns the current virtual time in nanoseconds. Event callbacks of a
// multi-shard simulation must use their Shard's Now instead (the global
// clock only advances window-by-window there); calling Sim.Now from inside
// a safe window of one panics, at every GOMAXPROCS, to make that misuse loud.
func (s *Sim) Now() int64 {
	s.outsideWindow("Now")
	return s.Root().Now()
}

// At schedules fn at absolute time t (≥ now) on the root shard. Event
// callbacks of a multi-shard simulation must use Shard.At.
func (s *Sim) At(t int64, fn func()) {
	s.outsideWindow("At")
	s.Root().At(t, fn)
}

// outsideWindow panics when a multi-shard simulation's callback reaches for
// the global clock: inside a window it belongs to no shard.
func (s *Sim) outsideWindow(what string) {
	if s.inWindow && len(s.shards) > 1 {
		panic("netsim: Sim." + what + " inside a safe window of a multi-shard simulation — use Shard." + what)
	}
}

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
// they are NOT safe to call from other shards' callbacks during Run.
type Shard struct {
	sim *Sim
	id  int32
	now int64

	pq       eventQueue // this shard's pending events
	outbox   []*event   // cross-shard events scheduled during Run, awaiting merge
	ch       []uint64   // next channel sequence, indexed by destination shard
	executed uint64
	trace    []TraceEntry
}

// Now returns the shard's current virtual time: the timestamp of the event
// being executed, never behind the global clock.
func (sh *Shard) Now() int64 { return max(sh.now, sh.sim.now) }

// At schedules fn on this shard at absolute time t (clamped to Now).
func (sh *Shard) At(t int64, fn func()) {
	heap.Push(&sh.pq, sh.newEvent(max(t, sh.Now()), sh, fn))
}

// After schedules fn on this shard after a delay.
func (sh *Shard) After(d int64, fn func()) { sh.At(sh.Now()+d, fn) }

// Cross schedules fn on shard dst at absolute time t. From inside event
// callbacks, t must respect the simulator's lookahead (t ≥ now + lookahead):
// that bound is what lets Run drain shards independently within a safe
// window, so violating it panics, at every GOMAXPROCS.
func (sh *Shard) Cross(dst *Shard, t int64, fn func()) {
	if dst.sim != sh.sim {
		panic("netsim: Cross between different simulators")
	}
	if dst == sh {
		sh.At(t, fn)
		return
	}
	t = max(t, sh.Now())
	if !sh.sim.running {
		heap.Push(&dst.pq, sh.newEvent(t, dst, fn))
		return
	}
	la := sh.sim.lookahead
	if la == math.MaxInt64 {
		panic("netsim: cross-shard scheduling without a declared lookahead (create a cross-shard port or call SetLookahead)")
	}
	if t < sh.now+la {
		panic(fmt.Sprintf("netsim: cross-shard event at t=%d violates lookahead %d (shard %d now %d)",
			t, la, sh.id, sh.now))
	}
	// dst may be draining on another worker: the merge after the window
	// moves the event into its heap.
	sh.outbox = append(sh.outbox, sh.newEvent(t, dst, fn))
}

// CrossAfter schedules fn on shard dst after delay d (≥ lookahead).
func (sh *Shard) CrossAfter(dst *Shard, d int64, fn func()) { sh.Cross(dst, sh.Now()+d, fn) }

// newEvent keys fn for dst at t with the next sequence of the channel toward
// dst. Channel counters are owned by the scheduling shard, so no
// synchronization is needed and assignment order is the shard's
// deterministic execution order.
func (sh *Shard) newEvent(t int64, dst *Shard, fn func()) *event {
	for int(dst.id) >= len(sh.ch) {
		sh.ch = append(sh.ch, 0)
	}
	sh.ch[dst.id]++
	return &event{TraceEntry{At: t, Dst: dst.id, Src: sh.id, Seq: sh.ch[dst.id]}, fn}
}

// event is one scheduled callback with its deterministic ordering key, which
// is also what the trace records when it executes.
type event struct {
	TraceEntry
	fn func()
}

type eventQueue []*event

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].less(q[j].TraceEntry) }
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
