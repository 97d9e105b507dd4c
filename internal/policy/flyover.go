// flyover.go — the Flyovers reservation model (Wyss et al.) behind the
// Policy interface: reservations stripped to hop-local short-lived grants.
// There is no end-to-end path state at the ASes and no cross-hop atomicity —
// each hop admits or refuses on its own, and a partial acquisition leaves
// the admitted hops charged until their short lifetime lapses. Renewal IS a
// fresh setup: a new-generation flyover is admitted alongside the old one
// (which is left to expire), so a renewing flow competes with every other
// setup for the freed bandwidth — the model trades the bounded-tube renewal
// guarantee for per-hop statelessness, which the DoC head-to-head
// experiment makes visible.
package policy

import (
	"sort"
	"sync"

	"colibri/internal/reservation"
	"colibri/internal/restree"
)

// foGen is one flyover generation possibly still charged at the hops.
type foGen struct {
	gen, expT uint32
}

// foFlow is the source's record of one flyover-protected flow. The ASes
// hold nothing but the individual per-hop flyovers.
type foFlow struct {
	path   []Hop
	stripe int
	bw     uint64
	gen    uint32  // latest generation minted
	gens   []foGen // generations possibly live, oldest first
}

// Flyover implements the hop-local short-lifetime model. Safe for
// concurrent use.
type Flyover struct {
	*substrate
	fmu   sync.Mutex
	flows map[reservation.ID]*foFlow
}

// NewFlyover builds the flyover model: 4 s epochs and a one-epoch (4 s)
// default lifetime — flyovers are short-lived by design, four renewals per
// bounded-tube EER lifetime.
func NewFlyover(cfg Config) (*Flyover, error) {
	c := cfg.withDefaults(4, 128, 0)
	if c.LifetimeSec == 0 {
		c.LifetimeSec = c.EpochSeconds
	}
	s, err := newSubstrate(c)
	if err != nil {
		return nil, err
	}
	return &Flyover{substrate: s, flows: make(map[reservation.ID]*foFlow)}, nil
}

// Name returns "flyover".
func (p *Flyover) Name() string { return NameFlyover }

// Provision admits the per-hop tube SegRs.
func (p *Flyover) Provision(path []Hop, demandKbps uint64) error {
	return p.provision(path, demandKbps)
}

// acquireGen admits one generation's flyovers hop by hop, hop-locally:
// no rollback on refusal. An engine-level duplicate (restree.ErrExists) is
// an idempotent retry hitting a flyover the hop already holds and counts as
// admitted. It returns the number of hops admitted and the first refusing
// hop's error.
func (p *Flyover) acquireGen(flow reservation.ID, path []Hop, stripe int, bw uint64, gen, expT uint32) (int, error) {
	id := flow.Derived(gen)
	admitted := 0
	var firstErr error
	for _, h := range path {
		err := p.planes[h.IA].SetupEER(id, tubeSegID(h, stripe), bw, expT)
		p.addHopOps(1)
		if err != nil && err != restree.ErrExists {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		admitted++
	}
	return admitted, firstErr
}

// Setup acquires generation-0 flyovers at every hop. A refusal at any hop
// refuses the flow (the source cannot protect the full path), but the hops
// that admitted keep their flyovers until expiry — hop-local semantics have
// no rollback. A retried setup after a source crash dedups against the
// surviving flyovers instead of double-charging.
func (p *Flyover) Setup(flow reservation.ID, path []Hop, bwKbps uint64) (uint64, error) {
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
	if _, err := p.acquireGen(flow, path, stripe, bwKbps, 0, expT); err != nil {
		p.noteRefusal()
		return 0, err
	}
	p.flows[flow] = &foFlow{
		path: append([]Hop(nil), path...), stripe: stripe, bw: bwKbps,
		gens: []foGen{{gen: 0, expT: expT}},
	}
	p.noteSetup()
	return bwKbps, nil
}

// Renew mints the next generation as a FRESH setup anchored at now; the old
// generation is not replaced or torn down — it lapses on its own. Where the
// generations overlap in time the flow is briefly double-charged: that is
// the flyover model's renewal cost, and why a renewal can lose its slot to
// a competing setup that arrived after the old generation expired.
func (p *Flyover) Renew(flow reservation.ID) (uint64, error) {
	p.fmu.Lock()
	defer p.fmu.Unlock()
	fl, ok := p.flows[flow]
	if !ok {
		return 0, ErrUnknownFlow
	}
	now := p.clock()
	fl.pruneGens(now)
	fl.gen++
	expT := now + p.life
	admitted, err := p.acquireGen(flow, fl.path, fl.stripe, fl.bw, fl.gen, expT)
	if admitted > 0 {
		// Some hops hold the new generation even if the flow-level renewal
		// was refused; remember it so Teardown releases those flyovers.
		fl.gens = append(fl.gens, foGen{gen: fl.gen, expT: expT})
	}
	if err != nil {
		p.noteRefusal()
		return 0, err
	}
	p.noteRenew()
	return fl.bw, nil
}

// RenewWave renews per flow: a flyover renewal is a fresh setup, so there
// is no in-place batch form (each grant is a new record, admitted
// first-come-first-served).
func (p *Flyover) RenewWave(flows []reservation.ID, grants []uint64, errs []error) {
	renewWaveSeq(p, flows, grants, errs)
}

// Teardown releases every possibly-live generation at every hop.
func (p *Flyover) Teardown(flow reservation.ID) {
	p.fmu.Lock()
	defer p.fmu.Unlock()
	fl, ok := p.flows[flow]
	if !ok {
		return
	}
	for _, g := range fl.gens {
		id := flow.Derived(g.gen)
		for _, h := range fl.path {
			p.planes[h.IA].TeardownEER(id, tubeSegID(h, fl.stripe))
		}
		p.addHopOps(uint64(len(fl.path)))
	}
	delete(p.flows, flow)
}

// Tick advances lazy expiry on every engine and drops flows whose last
// generation has lapsed.
func (p *Flyover) Tick() int {
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
		fl.pruneGens(now)
		if len(fl.gens) == 0 {
			delete(p.flows, id)
		}
	}
	p.fmu.Unlock()
	return n
}

// pruneGens drops generations whose lifetime has lapsed (their engine
// records expire lazily; nothing to release).
func (fl *foFlow) pruneGens(now uint32) {
	kept := fl.gens[:0]
	for _, g := range fl.gens {
		if g.expT > now {
			kept = append(kept, g)
		}
	}
	fl.gens = kept
}

// Counts snapshots the aggregate outcomes.
func (p *Flyover) Counts() Counts {
	p.fmu.Lock()
	n := len(p.flows)
	p.fmu.Unlock()
	return p.counts(n)
}

// Audit snapshots the conservation rows of every AS.
func (p *Flyover) Audit(fromT, toT uint32) []ASAudit { return p.audit(fromT, toT) }

// forget drops the source's record without touching the engines (the crash
// seam; see BoundedTube.forget).
func (p *Flyover) forget(flow reservation.ID) {
	p.fmu.Lock()
	delete(p.flows, flow)
	p.fmu.Unlock()
}
