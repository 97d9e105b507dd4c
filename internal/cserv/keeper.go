package cserv

import (
	"slices"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/telemetry"
)

// GatewayInstaller is the slice of the Colibri gateway the keeper drives:
// installing renewed versions and demoting/re-promoting flows. Implemented
// by *gateway.Gateway.
type GatewayInstaller interface {
	Install(res packet.ResInfo, eer packet.EERInfo, path []packet.HopField, auths []cryptoutil.Key) error
	Demote(resID uint32) bool
	Promote(resID uint32) bool
}

// EERKeeper keeps one EER alive: it renews within a lead time before
// expiry, installs fresh versions at the gateway, and implements the
// failover of §3.2/§4.2 — when renewal keeps failing until the newest
// version is about to expire, the flow is demoted to best-effort at the
// gateway instead of blackholing, and the keeper continues trying; the
// next successful renewal re-promotes the flow to its reserved class.
//
// The keeper owns its serving grant and renews it in place: a successful
// renewal overwrites the grant's Res, EER and HopAuths, and a failed one
// leaves them alone, so the old version keeps serving (§4.2).
//
// Not safe for concurrent use; drive it from one maintenance loop.
type EERKeeper struct {
	svc *Service
	gw  GatewayInstaller
	// grant is the keeper's own copy of the serving version, or its slot in
	// a KeeperFleet's slab once a fleet has adopted the keeper.
	grant   *EERGrant
	lead    uint32
	demoted bool

	// Renewals and Failures count successful and failed renewal attempts.
	Renewals uint64
	Failures uint64
}

// NewEERKeeper builds a keeper for an already-granted (and installed) EER.
// leadSeconds is how long before expiry renewal starts (clamped to ≥ 1). The
// keeper copies grant and clones its HopAuths, so it never writes the
// caller's grant; it shares the chain's slices, which no renewal changes.
func NewEERKeeper(svc *Service, gw GatewayInstaller, grant *EERGrant, leadSeconds uint32) *EERKeeper {
	if leadSeconds < 1 {
		leadSeconds = 1
	}
	g := *grant
	g.HopAuths = slices.Clone(grant.HopAuths)
	return &EERKeeper{svc: svc, gw: gw, grant: &g, lead: leadSeconds}
}

// Grant returns the newest granted version. Its memory belongs to the
// keeper: the next successful renewal overwrites it in place.
func (k *EERKeeper) Grant() *EERGrant { return k.grant }

// Demoted reports whether the flow is currently demoted to best-effort.
func (k *EERKeeper) Demoted() bool { return k.demoted }

// Tick runs one maintenance step at the service's current time: a no-op
// while the newest version is fresh, otherwise a renewal attempt with
// demotion/re-promotion bookkeeping. The returned error is the renewal
// failure, if any; the flow keeps working (reserved or best-effort) either
// way.
func (k *EERKeeper) Tick() error {
	if !k.due(k.svc.clock()) {
		return nil
	}
	g, err := k.svc.RenewEER(k.grant, uint64(k.grant.Res.BwKbps))
	return k.applyOutcome(g, err)
}

// due reports whether the keeper wants a renewal attempt at now: inside the
// lead window, or any time while demoted (re-promotion retries, §3.2).
func (k *EERKeeper) due(now uint32) bool {
	return k.demoted || k.grant.Res.ExpT <= now+k.lead
}

// applyOutcome applies one renewal attempt's result — the same
// demotion/re-promotion bookkeeping whether the attempt traveled alone
// (Tick) or in a batched wave (KeeperFleet). g is read, never kept: the new
// version is copied into the keeper's grant once the gateway has installed
// it.
func (k *EERKeeper) applyOutcome(g *EERGrant, err error) error {
	now := k.svc.clock()
	exp := k.grant.Res.ExpT
	if err == nil && g.Res.BwKbps == 0 && k.grant.Res.BwKbps > 0 {
		// A zero-bandwidth grant for a flow that had bandwidth is a failed
		// renewal (the satellite of the SameBandwidth bug): don't install
		// the dead version, keep serving on the old one.
		k.svc.metrics.RenewZeroBw.Add(1)
		err = ErrZeroGrant
	}
	if err != nil {
		k.Failures++
		// Old versions serve seamlessly until expiry (§4.2), so failure
		// alone is not demotion; only when the newest version is dead or
		// dying this second does the flow drop to best-effort.
		if !k.demoted && exp <= now+1 {
			k.demoted = true
			k.gw.Demote(k.grant.Res.ResID)
			k.svc.metrics.Demotions.Add(1)
			k.svc.metrics.TraceID(int64(now)*1e9, telemetry.EvDemote, k.grant.ID, false, "renewal failed")
		}
		return err
	}
	if ierr := k.gw.Install(g.Res, g.EER, g.Path, g.HopAuths); ierr != nil {
		k.Failures++
		return ierr
	}
	k.grant.Res, k.grant.EER = g.Res, g.EER
	k.grant.HopAuths = append(k.grant.HopAuths[:0], g.HopAuths...)
	k.Renewals++
	if k.demoted {
		k.demoted = false
		k.svc.metrics.Promotions.Add(1)
		k.svc.metrics.TraceID(int64(now)*1e9, telemetry.EvPromote, k.grant.ID, true, "")
	}
	return nil
}

// KeeperFleet maintains many EERKeepers and renews the due ones in batched
// waves: keepers whose grants ride the same SegR chain (same SegIDs, Splits,
// and Path) are grouped and sent as EEBatchRenewReqs of at most BatchSize
// items, so a renewal storm costs one MAC verification and one shard-lock
// sweep per wave instead of per EER. Per-keeper semantics (zero-grant
// detection, demote/re-promote, counters) are exactly EERKeeper.Tick's.
//
// Not safe for concurrent use; drive it from one maintenance loop.
type KeeperFleet struct {
	svc     *Service
	keepers []*EERKeeper
	// BatchSize caps one wave's item count (bounding message size and the
	// blast radius of a transport failure, which fails the whole wave).
	BatchSize int

	// Keepers are grouped by chain signature when added: a renewed grant
	// inherits SegIDs, Splits and PathHops verbatim, so a keeper's group never
	// changes. group[i] is keepers[i]'s group; due[g] collects, during a tick,
	// the due keepers of group g. groupOf holds one entry per distinct chain
	// signature ever added — a fleet never removes keepers — so at most Len().
	group   []int32
	due     [][]*EERKeeper
	groupOf map[string]int32
	// chains[g] is the first grant of group g, whose chain slices every later
	// keeper of the group shares.
	chains []*EERGrant
	// grants and sigmas hold the keepers' grants and their σs, in the order
	// the keepers were added — the order a wave renews them in — so that a
	// wave reads and writes them front to back rather than wherever the
	// keepers happen to lie. Each is the newest of a series of chunks, and a
	// chunk never moves, so neither does a grant.
	grants []EERGrant
	sigmas []cryptoutil.Key
	// Tick's buffers, reused from tick to tick. prevs point at the due
	// keepers' grants, which the wave renews in place.
	order []int32
	prevs []*EERGrant
	bws   []uint64
}

// DefaultBatchSize is KeeperFleet's wave-size cap when BatchSize is 0.
const DefaultBatchSize = 4096

// NewKeeperFleet builds an empty fleet over one source AS's service.
func NewKeeperFleet(svc *Service) *KeeperFleet {
	return &KeeperFleet{svc: svc, BatchSize: DefaultBatchSize, groupOf: make(map[string]int32)}
}

// slabChunk caps the grants of one chunk of a fleet's slabs.
const slabChunk = 256

// Add registers a keeper with the fleet, which moves the keeper's grant into
// its slabs: Grant() returns the fleet's copy from then on.
func (f *KeeperFleet) Add(k *EERKeeper) {
	key := chainKey(k.grant)
	gi, ok := f.groupOf[key]
	if !ok {
		gi = int32(len(f.due))
		f.groupOf[key] = gi
		f.due = append(f.due, nil)
		f.chains = append(f.chains, nil)
	}
	// The chunks grow with the fleet, so a small fleet keeps small slabs.
	chunk := min(max(len(f.keepers), 8), slabChunk)
	if len(f.grants) == cap(f.grants) {
		f.grants = make([]EERGrant, 0, chunk)
	}
	f.grants = append(f.grants, *k.grant)
	g := &f.grants[len(f.grants)-1]
	n := len(g.HopAuths)
	if cap(f.sigmas)-len(f.sigmas) < n {
		f.sigmas = make([]cryptoutil.Key, 0, chunk*n)
	}
	f.sigmas = append(f.sigmas, g.HopAuths...)
	g.HopAuths = f.sigmas[len(f.sigmas)-n : len(f.sigmas) : len(f.sigmas)]
	if c := f.chains[gi]; c != nil {
		// Equal chains (chainKey; Path is PathHops' hop fields), kept once.
		g.Path, g.PathHops, g.Splits, g.SegIDs = c.Path, c.PathHops, c.Splits, c.SegIDs
	} else {
		f.chains[gi] = g
	}
	k.grant = g
	f.keepers = append(f.keepers, k)
	f.group = append(f.group, gi)
}

// Len returns the number of keepers in the fleet.
func (f *KeeperFleet) Len() int { return len(f.keepers) }

// Keepers returns the fleet's keepers in insertion order.
func (f *KeeperFleet) Keepers() []*EERKeeper { return f.keepers }

// Demoted counts keepers currently demoted to best-effort.
func (f *KeeperFleet) Demoted() int {
	n := 0
	for _, k := range f.keepers {
		if k.demoted {
			n++
		}
	}
	return n
}

// chainKey is a grant's batching signature: items in one EEBatchRenewReq
// must share the SegR chain and path verbatim.
func chainKey(g *EERGrant) string {
	b := make([]byte, 0, 64)
	for _, id := range g.SegIDs {
		b = appendID(b, id)
	}
	b = append(b, 0xff)
	b = append(b, g.Splits...)
	b = append(b, 0xff)
	b = appendHops(b, g.PathHops)
	return string(b)
}

// Tick runs one maintenance step: collect the due keepers into their groups
// (groups ordered by their first due keeper, keepers in insertion order — no
// map iteration, so runs are deterministic), renew each group in waves of at
// most BatchSize, and apply each item's outcome to its keeper. It returns the
// number of renewal attempts that failed this tick.
func (f *KeeperFleet) Tick() int {
	now := f.svc.clock()
	f.order = f.order[:0]
	for i, k := range f.keepers {
		if !k.due(now) {
			continue
		}
		gi := f.group[i]
		if len(f.due[gi]) == 0 {
			f.order = append(f.order, gi)
		}
		f.due[gi] = append(f.due[gi], k)
	}
	size := f.BatchSize
	if size <= 0 {
		size = DefaultBatchSize
	}
	failures := 0
	for _, gi := range f.order {
		due := f.due[gi]
		for off := 0; off < len(due); off += size {
			wave := due[off:min(off+size, len(due))]
			f.prevs, f.bws = f.prevs[:0], f.bws[:0]
			for _, k := range wave {
				f.prevs = append(f.prevs, k.grant)
				f.bws = append(f.bws, uint64(k.grant.Res.BwKbps))
			}
			f.svc.renewWave(f.prevs, f.bws, func(i int, g *EERGrant, err error) {
				if wave[i].applyOutcome(g, err) != nil {
					failures++
				}
			})
		}
		f.due[gi] = due[:0]
	}
	return failures
}
