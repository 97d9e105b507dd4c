// hummingbird.go — the Hummingbird reservation model (Wüst et al.) behind
// the Policy interface: reservations decoupled from paths and sliced in
// time. Each hop sells bandwidth × time-slice grants over fine-grained
// epochs (1 s by default, vs the bounded-tube 4 s); a flow's next slice is
// anchored at the END of its current slice, not at "now", so renewing early
// books the bandwidth ahead of competing setups, and back-to-back slices
// concatenate seamlessly on the restree ledger — the handover epoch is never
// double-charged (the conservative floor/ceil widening regression suite in
// internal/restree pins the boundary arithmetic this depends on). Like
// flyover, acquisition is hop-local with no cross-hop atomicity; unlike
// flyover, a refused slice can be retried idempotently (the hops that
// already sold it answer with a dedup, not a second charge).
package policy

import (
	"sort"
	"sync"

	"colibri/internal/reservation"
	"colibri/internal/restree"
)

// hbSlice is one time slice possibly still charged at the hops.
type hbSlice struct {
	idx, expT uint32
}

// hbFlow is the source's record of one Hummingbird-protected flow.
type hbFlow struct {
	path   []Hop
	stripe int
	bw     uint64
	next   uint32 // index of the next slice to buy
	endT   uint32 // end of the last fully-acquired slice
	slices []hbSlice
}

// Hummingbird implements the path-decoupled time-sliced model. Safe for
// concurrent use.
type Hummingbird struct {
	*substrate
	fmu   sync.Mutex
	flows map[reservation.ID]*hbFlow
}

// NewHummingbird builds the time-sliced model: 1 s epochs (fine slicing is
// the model's point), a 512-epoch ledger ring so the fine epochs still
// cover SegR-scale windows, and a 4 s default slice.
func NewHummingbird(cfg Config) (*Hummingbird, error) {
	s, err := newSubstrate(cfg.withDefaults(1, 512, 4))
	if err != nil {
		return nil, err
	}
	return &Hummingbird{substrate: s, flows: make(map[reservation.ID]*hbFlow)}, nil
}

// Name returns "hummingbird".
func (p *Hummingbird) Name() string { return NameHummingbird }

// Provision admits the per-hop tube SegRs.
func (p *Hummingbird) Provision(path []Hop, demandKbps uint64) error {
	return p.provision(path, demandKbps)
}

// acquireSlice buys one slice [startT, expT) hop-locally; restree.ErrExists
// is an idempotent retry of a slice a hop already sold. It returns how many
// hops sold the slice and the first refusing hop's error.
func (p *Hummingbird) acquireSlice(flow reservation.ID, fl *hbFlow, idx, startT, expT uint32) (int, error) {
	id := flow.Derived(idx)
	sold := 0
	var firstErr error
	for _, h := range fl.path {
		err := p.planes[h.IA].SetupEERAt(id, tubeSegID(h, fl.stripe), fl.bw, startT, expT)
		p.addHopOps(1)
		if err != nil && err != restree.ErrExists {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sold++
	}
	return sold, firstErr
}

// Setup buys the flow's first slice [now, now+slice) at every hop. A
// refusal at any hop refuses the flow; admitted hops keep the slice until
// it lapses (hop-local semantics, as in flyover).
func (p *Hummingbird) Setup(flow reservation.ID, path []Hop, bwKbps uint64) (uint64, error) {
	p.fmu.Lock()
	defer p.fmu.Unlock()
	if _, dup := p.flows[flow]; dup {
		return 0, ErrFlowExists
	}
	p.mu.Lock()
	err := p.checkPathLocked(path)
	stripe := stripeOf(flow, p.stripes)
	p.mu.Unlock()
	if err != nil {
		return 0, err
	}
	now := p.clock()
	expT := now + p.life
	fl := &hbFlow{path: append([]Hop(nil), path...), stripe: stripe, bw: bwKbps}
	if _, err := p.acquireSlice(flow, fl, 0, now, expT); err != nil {
		p.noteRefusal()
		return 0, err
	}
	fl.next, fl.endT = 1, expT
	fl.slices = []hbSlice{{idx: 0, expT: expT}}
	p.flows[flow] = fl
	p.noteSetup()
	return bwKbps, nil
}

// Renew buys the flow's next slice, anchored at the end of the current one
// — NOT at now. Renewing before the current slice lapses therefore reserves
// the future window immediately, which is what shields an on-time
// Hummingbird renewal from competing setups (they probe the same window and
// find it taken). A late renewal re-anchors at now: the missed window is
// gone and is not charged. A refused slice leaves the flow on its current
// slice and can be retried — hops that already sold the slice dedup.
func (p *Hummingbird) Renew(flow reservation.ID) (uint64, error) {
	p.fmu.Lock()
	defer p.fmu.Unlock()
	fl, ok := p.flows[flow]
	if !ok {
		return 0, ErrUnknownFlow
	}
	now := p.clock()
	fl.pruneSlices(now)
	startT := fl.endT
	if startT < now {
		startT = now
	}
	expT := startT + p.life
	sold, err := p.acquireSlice(flow, fl, fl.next, startT, expT)
	if sold > 0 {
		fl.slices = append(fl.slices, hbSlice{idx: fl.next, expT: expT})
	}
	if err != nil {
		p.noteRefusal()
		return 0, err
	}
	fl.next++
	fl.endT = expT
	p.noteRenew()
	return fl.bw, nil
}

// RenewWave renews per flow: each slice is an independent per-hop grant
// (the model has no in-place replacement to batch shard-major).
func (p *Hummingbird) RenewWave(flows []reservation.ID, grants []uint64, errs []error) {
	renewWaveSeq(p, flows, grants, errs)
}

// Teardown releases every possibly-live slice at every hop.
func (p *Hummingbird) Teardown(flow reservation.ID) {
	p.fmu.Lock()
	defer p.fmu.Unlock()
	fl, ok := p.flows[flow]
	if !ok {
		return
	}
	for _, s := range fl.slices {
		id := flow.Derived(s.idx)
		for _, h := range fl.path {
			p.planes[h.IA].TeardownEER(id, tubeSegID(h, fl.stripe))
		}
		p.addHopOps(uint64(len(fl.path)))
	}
	delete(p.flows, flow)
}

// Tick advances lazy expiry on every engine and drops flows whose last
// slice has lapsed.
func (p *Hummingbird) Tick() int {
	n := p.tick()
	now := p.clock()
	p.fmu.Lock()
	ids := make([]reservation.ID, 0, len(p.flows))
	for id := range p.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	for _, id := range ids {
		fl := p.flows[id]
		fl.pruneSlices(now)
		if len(fl.slices) == 0 {
			delete(p.flows, id)
		}
	}
	p.fmu.Unlock()
	return n
}

// pruneSlices drops slices whose window has lapsed.
func (fl *hbFlow) pruneSlices(now uint32) {
	kept := fl.slices[:0]
	for _, s := range fl.slices {
		if s.expT > now {
			kept = append(kept, s)
		}
	}
	fl.slices = kept
}

// Counts snapshots the aggregate outcomes.
func (p *Hummingbird) Counts() Counts {
	p.fmu.Lock()
	n := len(p.flows)
	p.fmu.Unlock()
	return p.counts(n)
}

// Audit snapshots the conservation rows of every AS.
func (p *Hummingbird) Audit(fromT, toT uint32) []ASAudit { return p.audit(fromT, toT) }

// forget drops the source's record without touching the engines (the crash
// seam; see BoundedTube.forget).
func (p *Hummingbird) forget(flow reservation.ID) {
	p.fmu.Lock()
	delete(p.flows, flow)
	p.fmu.Unlock()
}
