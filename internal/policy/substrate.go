// substrate.go — the engine layer every reservation model shares: one
// sharded cserv.CPlane per on-path AS, per-hop "tube" SegRs admitted through
// the pluggable admission backends, and the conservation audit. The models
// differ only in how flows charge the tubes (boundedtube.go, flyover.go,
// hummingbird.go); the substrate guarantees that whatever they do, admitted
// demand is checked against the tube grants on the restree ledgers with one
// shard lock per operation and lazy expiry.
package policy

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"colibri/internal/admission"
	"colibri/internal/cserv"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// tubeKey names one provisioned hop tube.
type tubeKey struct {
	ia     topology.IA
	in, eg topology.IfID
}

// substrate is the shared per-AS engine state. The tube set is guarded by
// mu; the CPlanes lock themselves; outcome counters are atomics so Counts
// never blocks an in-flight operation.
type substrate struct {
	mu      sync.Mutex
	planes  map[topology.IA]*cserv.CPlane
	order   []topology.IA // sorted IAs for deterministic iteration
	tubes   map[tubeKey]int
	clock   func() uint32
	split   admission.TrafficSplit
	life    uint32
	stripes int

	setups, renews, refusals, hopOps atomic.Uint64
}

// withDefaults fills cfg's zero fields with the model's natural parameters.
func (cfg Config) withDefaults(epochSec uint32, ledgerEpochs int, lifeSec uint32) Config {
	if cfg.Split == (admission.TrafficSplit{}) {
		cfg.Split = admission.DefaultSplit
	}
	if cfg.EpochSeconds == 0 {
		cfg.EpochSeconds = epochSec
	}
	if cfg.LedgerEpochs == 0 {
		cfg.LedgerEpochs = ledgerEpochs
	}
	if cfg.LifetimeSec == 0 {
		cfg.LifetimeSec = lifeSec
	}
	if cfg.Stripes == 0 {
		cfg.Stripes = cfg.Shards
		if cfg.Stripes < 1 {
			cfg.Stripes = 1
		}
	}
	return cfg
}

// newSubstrate builds one CPlane per AS from the (default-filled) config.
func newSubstrate(cfg Config) (*substrate, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("policy: Config.Clock is required")
	}
	if len(cfg.ASes) == 0 {
		return nil, fmt.Errorf("policy: Config.ASes is empty")
	}
	s := &substrate{
		planes:  make(map[topology.IA]*cserv.CPlane, len(cfg.ASes)),
		tubes:   make(map[tubeKey]int),
		clock:   cfg.Clock,
		split:   cfg.Split,
		life:    cfg.LifetimeSec,
		stripes: cfg.Stripes,
	}
	for _, as := range cfg.ASes {
		if _, dup := s.planes[as.IA]; dup {
			return nil, fmt.Errorf("policy: duplicate AS %s", as.IA)
		}
		cp, err := cserv.NewCPlane(cserv.CPlaneConfig{
			AS:           as,
			Split:        cfg.Split,
			Shards:       cfg.Shards,
			EpochSeconds: cfg.EpochSeconds,
			LedgerEpochs: cfg.LedgerEpochs,
			Clock:        cfg.Clock,
		})
		if err != nil {
			return nil, err
		}
		s.planes[as.IA] = cp
		s.order = append(s.order, as.IA)
	}
	sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	return s, nil
}

// tubeSegID derives the deterministic SegR ID of one hop tube stripe: the
// hop's own IA is the source (tube SegRs are local provisioning, not flow
// state) and Num encodes (in, eg, stripe) — disjoint by construction from
// flow EER IDs, which carry the flow source's IA.
func tubeSegID(h Hop, stripe int) reservation.ID {
	return reservation.ID{
		SrcAS: h.IA,
		Num:   uint32(h.In)<<20 | uint32(h.Eg)<<8 | uint32(stripe)&0xff,
	}
}

// stripeOf assigns a flow to a tube stripe round-robin by flow Num —
// deterministic, and uniform for sequentially numbered flows.
func stripeOf(flow reservation.ID, stripes int) int {
	return int(flow.Num % uint32(stripes))
}

// provision admits the tube SegRs of every hop on the path, demandKbps per
// hop split across the stripes exactly (remainder to the low stripes).
// Already-provisioned tubes are skipped, so overlapping paths share tubes.
func (s *substrate) provision(path []Hop, demandKbps uint64) error {
	if len(path) == 0 {
		return ErrEmptyPath
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range path {
		cp := s.planes[h.IA]
		if cp == nil {
			return fmt.Errorf("policy: no engine for AS %s", h.IA)
		}
		k := tubeKey{ia: h.IA, in: h.In, eg: h.Eg}
		if s.tubes[k] > 0 {
			continue
		}
		for st := 0; st < s.stripes; st++ {
			share := demandKbps / uint64(s.stripes)
			if uint64(st) < demandKbps%uint64(s.stripes) {
				share++
			}
			if share == 0 {
				continue
			}
			req := admission.Request{
				ID:      tubeSegID(h, st),
				Src:     h.IA,
				In:      h.In,
				Eg:      h.Eg,
				MaxKbps: share,
			}
			if _, err := cp.AddSegR(req); err != nil {
				return fmt.Errorf("policy: provision %s if %d->%d stripe %d: %w",
					h.IA, h.In, h.Eg, st, err)
			}
		}
		s.tubes[k] = s.stripes
	}
	return nil
}

// checkPath verifies every hop's tube is provisioned (under s.mu).
func (s *substrate) checkPathLocked(path []Hop) error {
	if len(path) == 0 {
		return ErrEmptyPath
	}
	for _, h := range path {
		if s.tubes[tubeKey{ia: h.IA, in: h.In, eg: h.Eg}] == 0 {
			return ErrUnprovisioned
		}
	}
	return nil
}

// tick advances lazy expiry on every engine, in IA order.
func (s *substrate) tick() int {
	total := 0
	for _, ia := range s.order {
		total += s.planes[ia].Tick()
	}
	return total
}

// audit snapshots every AS's conservation rows, in IA order.
func (s *substrate) audit(fromT, toT uint32) []ASAudit {
	out := make([]ASAudit, 0, len(s.order))
	for _, ia := range s.order {
		out = append(out, ASAudit{IA: ia, Segs: s.planes[ia].AuditLedgers(fromT, toT)})
	}
	return out
}

// engineCounts sums the per-AS CPlane counters, in IA order.
func (s *substrate) engineCounts() cserv.CPlaneCounts {
	var total cserv.CPlaneCounts
	for _, ia := range s.order {
		ct := s.planes[ia].Counts()
		total.SegRs += ct.SegRs
		total.EERs += ct.EERs
		total.Admits += ct.Admits
		total.Renews += ct.Renews
		total.Rejects += ct.Rejects
		total.Dedups += ct.Dedups
		total.Stale += ct.Stale
	}
	return total
}

// counts assembles the policy-level snapshot (flows supplied by the model).
func (s *substrate) counts(flows int) Counts {
	return Counts{
		Flows:    flows,
		Setups:   s.setups.Load(),
		Renews:   s.renews.Load(),
		Refusals: s.refusals.Load(),
		HopOps:   s.hopOps.Load(),
		Engine:   s.engineCounts(),
	}
}

// Outcome-counter helpers shared by the models.
func (s *substrate) addHopOps(n uint64) { s.hopOps.Add(n) }
func (s *substrate) noteSetup()         { s.setups.Add(1) }
func (s *substrate) noteRenew()         { s.renews.Add(1) }
func (s *substrate) noteRefusal()       { s.refusals.Add(1) }

// renewWaveSeq is the per-flow RenewWave fallback for models whose renewal
// is a fresh setup and therefore has no shard-major batch form.
func renewWaveSeq(p Policy, flows []reservation.ID, grants []uint64, errs []error) {
	if len(flows) != len(grants) || len(flows) != len(errs) {
		panic("policy: RenewWave slice length mismatch")
	}
	for i, f := range flows {
		grants[i], errs[i] = p.Renew(f)
	}
}
