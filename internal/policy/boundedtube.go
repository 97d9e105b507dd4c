// boundedtube.go — the paper's reservation model behind the Policy
// interface: end-to-end atomic setup across every on-path hop with rollback
// on refusal (§3.3's temporary-reservation cleanup), and in-place version
// replacement at renewal (§4.2) — the old charge is released before the free
// bandwidth is probed, so an on-time renewal never loses its slot to a
// competing setup, and a refused renewal falls back to the still-valid
// previous version.
package policy

import (
	"sync"

	"colibri/internal/cserv"
	"colibri/internal/reservation"
	"colibri/internal/restree"
	"colibri/internal/topology"
)

// btFlow is the initiator's record of one bounded-tube EER.
type btFlow struct {
	path   []Hop
	stripe int
	bw     uint64
	expT   uint32
}

// BoundedTube implements the paper's bounded-tube-fairness reservation
// model. Safe for concurrent use.
type BoundedTube struct {
	*substrate
	fmu   sync.Mutex
	flows map[reservation.ID]*btFlow
}

// NewBoundedTube builds the paper's model: 4 s epochs, 16 s EER lifetimes.
func NewBoundedTube(cfg Config) (*BoundedTube, error) {
	s, err := newSubstrate(cfg.withDefaults(4, 128, reservation.EERLifetimeSeconds))
	if err != nil {
		return nil, err
	}
	return &BoundedTube{substrate: s, flows: make(map[reservation.ID]*btFlow)}, nil
}

// Name returns "bounded-tube".
func (p *BoundedTube) Name() string { return NameBoundedTube }

// Provision admits the per-hop tube SegRs.
func (p *BoundedTube) Provision(path []Hop, demandKbps uint64) error {
	return p.provision(path, demandKbps)
}

// Setup admits the flow at every hop atomically: a refusal anywhere tears
// the already-admitted hops back down and reports the refusing hop's error.
// An engine-level duplicate (restree.ErrExists) at a hop is an idempotent
// retry hitting committed state and counts as admitted there.
func (p *BoundedTube) Setup(flow reservation.ID, path []Hop, bwKbps uint64) (uint64, error) {
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
	for i, h := range path {
		err := p.planes[h.IA].SetupEER(flow, tubeSegID(h, stripe), bwKbps, expT)
		p.addHopOps(1)
		if err != nil && err != restree.ErrExists {
			// Roll the chain back: release the hops admitted so far.
			for j := i - 1; j >= 0; j-- {
				p.planes[path[j].IA].TeardownEER(flow, tubeSegID(path[j], stripe))
			}
			p.addHopOps(uint64(i))
			p.noteRefusal()
			return 0, err
		}
	}
	p.flows[flow] = &btFlow{path: append([]Hop(nil), path...), stripe: stripe, bw: bwKbps, expT: expT}
	p.noteSetup()
	return bwKbps, nil
}

// Renew replaces the flow's version at every hop for another lifetime. The
// grant is the path-wide minimum of the per-hop grants (each hop grants
// min(requested, free) after releasing the old version's charge); a refusal
// at any hop reports the error while the refusing hop falls back to the
// previous version until it expires.
func (p *BoundedTube) Renew(flow reservation.ID) (uint64, error) {
	p.fmu.Lock()
	defer p.fmu.Unlock()
	fl, ok := p.flows[flow]
	if !ok {
		return 0, ErrUnknownFlow
	}
	now := p.clock()
	expT := now + p.life
	granted := fl.bw
	for _, h := range fl.path {
		g, err := p.planes[h.IA].RenewEER(flow, tubeSegID(h, fl.stripe), fl.bw, expT)
		p.addHopOps(1)
		if err != nil {
			p.noteRefusal()
			return 0, err
		}
		if g < granted {
			granted = g
		}
	}
	fl.expT = expT
	p.noteRenew()
	return granted, nil
}

// RenewWave renews the flows shard-major: items are bucketed per AS and
// handed to cserv.RenewBatch, which takes each shard's lock once per wave
// instead of once per renewal. The per-flow outcomes are identical to
// calling Renew in slice order.
func (p *BoundedTube) RenewWave(flows []reservation.ID, grants []uint64, errs []error) {
	if len(flows) != len(grants) || len(flows) != len(errs) {
		panic("policy: RenewWave slice length mismatch")
	}
	p.fmu.Lock()
	defer p.fmu.Unlock()
	now := p.clock()
	expT := now + p.life
	items := make(map[topology.IA][]cserv.EERRenewal, len(p.order))
	idx := make(map[topology.IA][]int, len(p.order))
	var ops uint64
	for i, f := range flows {
		grants[i], errs[i] = 0, nil
		fl, ok := p.flows[f]
		if !ok {
			errs[i] = ErrUnknownFlow
			continue
		}
		grants[i] = fl.bw
		for _, h := range fl.path {
			items[h.IA] = append(items[h.IA], cserv.EERRenewal{
				EER: f, Seg: tubeSegID(h, fl.stripe), BwKbps: fl.bw, ExpT: expT,
			})
			idx[h.IA] = append(idx[h.IA], i)
			ops++
		}
	}
	p.addHopOps(ops)
	for _, ia := range p.order {
		its := items[ia]
		if len(its) == 0 {
			continue
		}
		res := make([]cserv.RenewResult, len(its))
		p.planes[ia].RenewBatch(its, res)
		for j := range res {
			i := idx[ia][j]
			if res[j].Err != nil {
				if errs[i] == nil {
					errs[i] = res[j].Err
				}
				continue
			}
			if res[j].Granted < grants[i] {
				grants[i] = res[j].Granted
			}
		}
	}
	for i, f := range flows {
		if errs[i] != nil {
			grants[i] = 0
			if errs[i] != ErrUnknownFlow {
				p.noteRefusal()
			}
			continue
		}
		p.flows[f].expT = expT
		p.noteRenew()
	}
}

// Teardown releases the flow at every hop.
func (p *BoundedTube) Teardown(flow reservation.ID) {
	p.fmu.Lock()
	defer p.fmu.Unlock()
	fl, ok := p.flows[flow]
	if !ok {
		return
	}
	for _, h := range fl.path {
		p.planes[h.IA].TeardownEER(flow, tubeSegID(h, fl.stripe))
	}
	p.addHopOps(uint64(len(fl.path)))
	delete(p.flows, flow)
}

// Tick advances lazy expiry on every engine and drops lapsed flow records.
func (p *BoundedTube) Tick() int {
	n := p.tick()
	now := p.clock()
	p.fmu.Lock()
	for id, fl := range p.flows {
		if fl.expT <= now {
			delete(p.flows, id)
		}
	}
	p.fmu.Unlock()
	return n
}

// Counts snapshots the aggregate outcomes.
func (p *BoundedTube) Counts() Counts {
	p.fmu.Lock()
	n := len(p.flows)
	p.fmu.Unlock()
	return p.counts(n)
}

// Audit snapshots the conservation rows of every AS.
func (p *BoundedTube) Audit(fromT, toT uint32) []ASAudit { return p.audit(fromT, toT) }

// forget drops the initiator's record without touching the engines — the
// crash seam of the conservation property test: the source loses its state,
// the per-hop charges survive until expiry, and retried setups must dedup.
func (p *BoundedTube) forget(flow reservation.ID) {
	p.fmu.Lock()
	delete(p.flows, flow)
	p.fmu.Unlock()
}
