package netsim

import "sort"

// RunReference exposes the global-key-order oracle (reference_test.go) to
// the external test package.
var RunReference = runReference

// Faults returns the port's fault plan (nil when fault-free).
func (p *Port) Faults() *FaultPlan { return p.faults }

// Partition schedules a bidirectional-looking partition by downing every
// given port (typically both directions of the links crossing a cut) for
// the window [from, to). Ports without a fault plan get a fresh one seeded
// from the window bounds.
func Partition(from, to int64, ports ...*Port) {
	for _, p := range ports {
		if p.faults == nil {
			p.faults = NewFaultPlan(uint64(from)<<32 ^ uint64(to))
		}
		p.faults.AddDown(from, to)
	}
}

// NewDetachable wraps inner (which may be nil for a pure reachability
// flag, e.g. gating a control-plane transport).
func NewDetachable(inner Node) *Detachable { return &Detachable{Inner: inner} }

// Detach crashes the node: subsequent deliveries are dropped.
func (d *Detachable) Detach() { d.down = true }

// Attach restarts the node.
func (d *Detachable) Attach() { d.down = false }

// Up reports whether the node is attached.
func (d *Detachable) Up() bool { return !d.down }

// Receive implements Node.
func (d *Detachable) Receive(pkt *Packet, inPort int) {
	if d.down || d.Inner == nil {
		d.Dropped++
		return
	}
	d.Inner.Receive(pkt, inPort)
}

// Detachable wraps a node so it can be detached (crashed) and re-attached
// (restarted): while detached, every delivery is counted and discarded.
// It models a CServ or router process crash without tearing down the
// topology. The zero value is attached.
type Detachable struct {
	Inner Node
	down  bool

	// Dropped counts packets discarded while detached.
	Dropped uint64
}

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

// After schedules fn after a delay on the root shard.
func (s *Sim) After(d int64, fn func()) { s.At(s.Now()+d, fn) }

// EnableTrace turns on event-trace recording (off by default; recording
// costs one append per event).
func (s *Sim) EnableTrace() { s.traceOn = true }

// Trace returns the canonical execution trace: every executed event's key,
// in the global deterministic order. Shards record their own events; the
// merge sorts by key, which is the order one global heap would have run
// them in — equality of traces is therefore the bit-identity criterion.
func (s *Sim) Trace() []TraceEntry {
	var out []TraceEntry
	for _, sh := range s.shards {
		out = append(out, sh.trace...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// ReceiveBatch implements BatchNode.
func (d *Detachable) ReceiveBatch(pkts []*Packet, inPort int) {
	if d.down || d.Inner == nil {
		d.Dropped += uint64(len(pkts))
		return
	}
	deliverBurst(d.Inner, pkts, inPort)
}
