package netsim

import (
	"fmt"

	"colibri/internal/qos"
	"colibri/internal/telemetry"
)

// Probe samples watched ports on virtual-time ticks into a telemetry
// registry: delivered bytes become per-class counters, instantaneous queue
// depths become per-class histograms (so queue-buildup percentiles come for
// free), and drops become counters. Sampling runs inside the event loop on
// one shard, so it may only watch ports owned by that shard (port state is
// only coherent from its owning shard during Run); NewProbe binds the root
// shard, NewShardProbe any other.
type Probe struct {
	sh       *Shard
	reg      *telemetry.Registry
	interval int64
	ports    []*probePort
}

type probePort struct {
	port      *Port
	sent      [qos.NumClasses]*telemetry.Counter
	drops     [qos.NumClasses]*telemetry.Counter
	depth     [qos.NumClasses]*telemetry.Histogram
	lastSent  [qos.NumClasses]uint64
	lastDrops [qos.NumClasses]uint64
}

// NewProbe builds a probe on the root shard sampling every intervalNs of
// virtual time.
func NewProbe(sim *Sim, reg *telemetry.Registry, intervalNs int64) *Probe {
	return NewShardProbe(sim.Root(), reg, intervalNs)
}

// NewShardProbe builds a probe whose sampling ticks run on sh; it may only
// watch ports owned by sh.
func NewShardProbe(sh *Shard, reg *telemetry.Registry, intervalNs int64) *Probe {
	if intervalNs <= 0 {
		intervalNs = 1e6 // 1 ms of virtual time
	}
	return &Probe{sh: sh, reg: reg, interval: intervalNs}
}

// Watch adds ports to the sampling set. Instruments are named
// netsim.<port>.{sent_bytes,drop_pkts,queued_bytes}.<class>.
func (p *Probe) Watch(ports ...*Port) {
	for _, port := range ports {
		if port.src != p.sh {
			panic("netsim: probe may only watch ports on its own shard")
		}
		pp := &probePort{port: port}
		prefix := fmt.Sprintf("netsim.%s.", port.Name())
		// Dynamic name parts are bounded: ports come from the finite
		// topology, classes from the fixed qos enum — cardinality cannot
		// run away, and the shape is documented on Watch.
		for c := qos.Class(0); c < qos.NumClasses; c++ {
			pp.sent[c] = p.reg.Counter(prefix + "sent_bytes." + c.String())      //colibri:allow(telemetry)
			pp.drops[c] = p.reg.Counter(prefix + "drop_pkts." + c.String())      //colibri:allow(telemetry)
			pp.depth[c] = p.reg.Histogram(prefix + "queued_bytes." + c.String()) //colibri:allow(telemetry)
		}
		p.ports = append(p.ports, pp)
	}
}

// Start schedules sampling ticks from the current virtual time until stopNs
// (0 = keep sampling as long as other events keep the simulation alive; the
// tick itself always stops at stopNs to avoid running the loop forever).
func (p *Probe) Start(stopNs int64) {
	var tick func()
	tick = func() {
		p.sample()
		if stopNs > 0 && p.sh.Now()+p.interval > stopNs {
			return
		}
		p.sh.After(p.interval, tick)
	}
	p.sh.After(p.interval, tick)
}

// sample records the delta of delivered/dropped bytes and the instantaneous
// queue depths since the previous tick.
func (p *Probe) sample() {
	for _, pp := range p.ports {
		drops := pp.port.Drops()
		for c := qos.Class(0); c < qos.NumClasses; c++ {
			if d := pp.port.Sent[c] - pp.lastSent[c]; d > 0 {
				pp.sent[c].Add(d)
				pp.lastSent[c] = pp.port.Sent[c]
			}
			if d := drops[c] - pp.lastDrops[c]; d > 0 {
				pp.drops[c].Add(d)
				pp.lastDrops[c] = drops[c]
			}
			pp.depth[c].Observe(int64(pp.port.QueuedBytes(c)))
		}
	}
}
