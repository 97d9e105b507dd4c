// Package netsim is a discrete-event network simulator: virtual time, nodes
// exchanging packets over links with finite capacity and propagation delay,
// and per-output-port traffic-class scheduling (package qos).
//
// It stands in for the paper's hardware testbed (Spirent traffic generator,
// 40 Gbps links) in the data-plane protection experiment (Table 2) and the
// examples: the quantity those measure is which traffic *class* obtains the
// output link under contention, which the simulated schedulers reproduce
// exactly. Packets carry real header bytes (so the full cryptographic
// data-plane runs) plus a virtual wire size, so multi-Gbps loads simulate in
// milliseconds of CPU time.
//
// Simulation state is partitioned into shards (shard.go; one per simulated
// AS in scale runs), and Sim.Run (engine.go) drains them in safe windows on
// min(GOMAXPROCS, shards) workers. The event trace and final state do not
// depend on GOMAXPROCS: they equal those of one global heap run in key
// order, the oracle the tests compare against (DESIGN.md §6). Everything
// built without explicit shards lives on the root shard and runs as one
// window on one heap, on the caller's goroutine.
package netsim

import (
	"fmt"

	"colibri/internal/qos"
)

// Packet is one simulated packet: Header carries the real Colibri bytes (so
// routers run the actual cryptographic hot path); WireSize is the modelled
// on-wire size in bytes (headers + possibly virtual payload).
type Packet struct {
	Header   []byte
	WireSize int
	Class    qos.Class
	// Meta carries scenario-specific annotations (e.g., flow labels for
	// accounting at sinks).
	Meta any
}

// Node consumes packets delivered by ports.
type Node interface {
	// Receive is called inside the event loop when a packet arrives at the
	// node via the given input port index.
	Receive(pkt *Packet, inPort int)
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc func(pkt *Packet, inPort int)

// Receive implements Node.
func (f NodeFunc) Receive(pkt *Packet, inPort int) { f(pkt, inPort) }

// BatchNode is implemented by nodes that can consume a whole burst at
// once (e.g. a router node driving Worker.ProcessBatch). Ports and
// sources with a burst factor > 1 deliver through ReceiveBatch when the
// destination implements it, falling back to per-packet Receive calls
// otherwise. The pkts slice is owned by the caller and must not be
// retained past the call.
type BatchNode interface {
	Node
	ReceiveBatch(pkts []*Packet, inPort int)
}

// deliverBurst hands a burst to dst, batched when supported.
func deliverBurst(dst Node, pkts []*Packet, inPort int) {
	if bn, ok := dst.(BatchNode); ok && len(pkts) > 1 {
		bn.ReceiveBatch(pkts, inPort)
		return
	}
	for _, pkt := range pkts {
		dst.Receive(pkt, inPort)
	}
}

// Port is one output port: a class scheduler draining onto a link of fixed
// capacity and latency towards a destination node. A port belongs to the
// shard of its *sending* node (src): Send must only be called from that
// shard's event callbacks (or from setup code), and all port state lives
// there. Delivery to a destination on another shard crosses via the
// lookahead-respecting event channel.
type Port struct {
	src          *Shard // owning (sending-side) shard
	dstSh        *Shard // shard the destination node belongs to
	name         string
	capBitsPerNs float64 // link capacity in bits per nanosecond
	latencyNs    int64
	sched        *qos.Scheduler[*Packet]
	busy         bool
	dst          Node
	dstPort      int
	// burst is the maximum number of queued packets coalesced into one
	// transmission event (1 = per-packet events, the default).
	burst int
	// free recycles burst slices between events, keeping burst delivery
	// allocation-free in steady state. Cross-shard ports cannot recycle
	// (the slice is consumed on the destination shard), so their pool
	// stays empty and takeBurst allocates.
	free [][]*Packet
	// faults optionally injects loss, jitter, and down windows (see
	// faults.go); nil means a perfect link. Owned by the sending shard.
	faults *FaultPlan

	// Sent counts delivered bytes per class (at the sending side).
	Sent [qos.NumClasses]uint64
}

// NewPort creates an output port on sim's root shard with the given link
// capacity (kbps), propagation latency, scheduling policy, and destination.
func NewPort(sim *Sim, name string, capacityKbps uint64, latencyNs int64, policy qos.Policy, dst Node, dstPort int) *Port {
	return NewShardPort(sim.Root(), name, capacityKbps, latencyNs, policy, dst, sim.Root(), dstPort)
}

// NewShardPort creates an output port owned by the src shard whose
// destination node lives on dstSh. Cross-shard ports must have a positive
// propagation latency: the minimum such latency across the simulation is
// the engine's lookahead (the safe-window width).
func NewShardPort(src *Shard, name string, capacityKbps uint64, latencyNs int64, policy qos.Policy, dst Node, dstSh *Shard, dstPort int) *Port {
	if src.sim != dstSh.sim {
		panic("netsim: port shards belong to different simulators")
	}
	if src != dstSh {
		if latencyNs < 1 {
			panic("netsim: cross-shard ports need positive latency (it bounds the safe window)")
		}
		src.sim.noteLookahead(latencyNs)
	}
	return &Port{
		src:          src,
		dstSh:        dstSh,
		name:         name,
		capBitsPerNs: float64(capacityKbps) * 1000 / 1e9,
		latencyNs:    latencyNs,
		sched:        NewScheduler(policy),
		dst:          dst,
		dstPort:      dstPort,
		burst:        1,
	}
}

// SetBurst sets the port's burst factor: up to n back-to-back queued
// packets are serialized under a single transmission event and delivered
// together (via BatchNode when the destination supports it). This shrinks
// the event heap by the burst factor and lets simulations drive the batch
// data-plane APIs; per-packet serialization time and class accounting are
// unchanged. n < 1 is treated as 1.
func (p *Port) SetBurst(n int) {
	if n < 1 {
		n = 1
	}
	p.burst = n
}

// NewScheduler builds the packet scheduler used by ports (exported for
// tests that exercise scheduling in isolation).
func NewScheduler(policy qos.Policy) *qos.Scheduler[*Packet] {
	return qos.NewScheduler[*Packet](policy, 0)
}

// Drops returns the per-class tail-drop counters.
func (p *Port) Drops() [qos.NumClasses]uint64 { return p.sched.Drops }

// Name returns the port's name.
func (p *Port) Name() string { return p.name }

// QueuedBytes returns the bytes currently queued in one class.
func (p *Port) QueuedBytes(c qos.Class) int { return p.sched.QueuedBytes(c) }

// Send enqueues a packet for transmission; drops follow the scheduler's
// per-class limits. Must be called from the owning shard.
func (p *Port) Send(pkt *Packet) {
	if !p.faults.Admit(p.src.Now()) {
		return
	}
	if !p.sched.Enqueue(pkt, pkt.Class, pkt.WireSize) {
		return
	}
	if !p.busy {
		p.busy = true
		p.transmitNext()
	}
}

// transmitNext serializes the next burst of scheduled packets onto the
// link: up to p.burst packets are drained back-to-back, their serialization
// times summed into one event, and the whole slice delivered together
// after the propagation latency (crossing shards when the destination
// lives elsewhere — the latency is ≥ the lookahead by construction).
func (p *Port) transmitNext() {
	pkt, class, size, ok := p.sched.Dequeue()
	if !ok {
		p.busy = false
		return
	}
	p.Sent[class] += uint64(size)
	total := size
	burst := p.takeBurst()
	burst = append(burst, pkt)
	for len(burst) < p.burst {
		pkt, class, size, ok = p.sched.Dequeue()
		if !ok {
			break
		}
		p.Sent[class] += uint64(size)
		total += size
		burst = append(burst, pkt)
	}
	serNs := int64(float64(total*8) / p.capBitsPerNs)
	if serNs < 1 {
		serNs = 1
	}
	dst, dstPort, lat := p.dst, p.dstPort, p.latencyNs+p.faults.Jitter()
	p.src.After(serNs, func() {
		if p.dstSh == p.src {
			p.src.After(lat, func() {
				deliverBurst(dst, burst, dstPort)
				p.putBurst(burst)
			})
		} else {
			// The delivery executes on the destination shard; the slice is
			// handed over with it and not recycled (the sending shard may
			// already be transmitting again when it is consumed).
			p.src.CrossAfter(p.dstSh, lat, func() {
				deliverBurst(dst, burst, dstPort)
			})
		}
		p.transmitNext()
	})
}

// takeBurst pops a recycled burst slice (or makes one).
func (p *Port) takeBurst() []*Packet {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return make([]*Packet, 0, p.burst)
}

// putBurst returns a delivered burst slice to the pool.
func (p *Port) putBurst(b []*Packet) {
	for i := range b {
		b[i] = nil
	}
	p.free = append(p.free, b[:0])
}

func (p *Port) String() string { return fmt.Sprintf("port(%s)", p.name) }

// Source generates packets at a fixed rate into a destination node (it
// models a traffic generator attached to a link of its own). make creates
// each packet; the source stops at stopNs.
type Source struct {
	Sim     *Sim
	Dst     Node
	DstPort int
	// Shard places the source (and thus its generation events and its
	// direct deliveries into Dst) on a specific shard; nil means the root
	// shard. Dst must live on the same shard: delivery is a direct call.
	Shard *Shard
	// RateKbps and PktBytes define the generation rate.
	RateKbps uint64
	PktBytes int
	StopNs   int64
	Make     func() *Packet
	// Burst > 1 emits that many packets per tick, with the tick interval
	// stretched by the same factor so the offered rate is unchanged; the
	// burst is delivered in one call (via BatchNode when the destination
	// supports it), so one generation event replaces Burst of them.
	Burst int
}

// Start begins generation at startNs. A zero rate generates nothing.
func (src *Source) Start(startNs int64) {
	if src.RateKbps == 0 {
		return
	}
	sh := src.Shard
	if sh == nil {
		sh = src.Sim.Root()
	}
	burst := src.Burst
	if burst < 1 {
		burst = 1
	}
	interval := int64(float64(src.PktBytes*8*burst) / (float64(src.RateKbps) * 1000) * 1e9)
	if interval < 1 {
		interval = 1
	}
	buf := make([]*Packet, burst)
	var tick func()
	next := startNs
	tick = func() {
		if sh.Now() >= src.StopNs {
			return
		}
		for i := range buf {
			buf[i] = src.Make()
		}
		deliverBurst(src.Dst, buf, src.DstPort)
		next += interval
		sh.At(next, tick)
	}
	sh.At(startNs, tick)
}

// Counter is a sink node counting received bytes per class and per meta
// label.
type Counter struct {
	Bytes   [qos.NumClasses]uint64
	ByLabel map[string]uint64
}

// NewCounter builds an empty counter sink.
func NewCounter() *Counter { return &Counter{ByLabel: make(map[string]uint64)} }

// Receive implements Node.
func (c *Counter) Receive(pkt *Packet, _ int) {
	c.Bytes[pkt.Class] += uint64(pkt.WireSize)
	if label, ok := pkt.Meta.(string); ok {
		c.ByLabel[label] += uint64(pkt.WireSize)
	}
}

// ReceiveBatch implements BatchNode.
func (c *Counter) ReceiveBatch(pkts []*Packet, inPort int) {
	for _, pkt := range pkts {
		c.Receive(pkt, inPort)
	}
}

// Reset clears the counters (e.g., between measurement phases).
func (c *Counter) Reset() {
	c.Bytes = [qos.NumClasses]uint64{}
	c.ByLabel = make(map[string]uint64)
}

// GbpsOver converts a byte count accumulated over a duration to Gbps.
func GbpsOver(bytes uint64, durNs int64) float64 {
	return float64(bytes) * 8 / float64(durNs)
}
