package cserv

import (
	"math/bits"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// GatewayInstaller is the slice of the Colibri gateway the keeper drives:
// installing renewed versions and demoting/re-promoting flows. Implemented
// by *gateway.Gateway.
type GatewayInstaller interface {
	Install(res packet.ResInfo, eer packet.EERInfo, path []packet.HopField, auths []cryptoutil.Key) error
	Demote(resID uint32) bool
	Promote(resID uint32) bool
}

// EERKeeper hands one already-granted (and installed) EER to a KeeperFleet,
// which keeps it alive: it renews within a lead time before expiry, installs
// fresh versions at the gateway, and implements the failover of §3.2/§4.2 —
// when renewal keeps failing until the newest version is about to expire,
// the flow is demoted to best-effort at the gateway instead of blackholing,
// and the keeper continues trying; the next successful renewal re-promotes
// the flow to its reserved class.
//
// A keeper copies nothing: it names the grant, its installer and its lead
// time until KeeperFleet.Add reads them and clears it.
type EERKeeper struct {
	gw    GatewayInstaller
	grant *EERGrant
	lead  uint32
}

// NewEERKeeper builds a keeper for an already-granted (and installed) EER.
// leadSeconds is how long before expiry renewal starts (clamped to ≥ 1). The
// fleet the keeper goes to renews through its own service, which must be
// svc; Add only reads grant, which must not change until then.
func NewEERKeeper(svc *Service, gw GatewayInstaller, grant *EERGrant, leadSeconds uint32) *EERKeeper {
	return &EERKeeper{gw: gw, grant: grant, lead: max(leadSeconds, 1)}
}

// applyOutcome applies one renewal attempt's result to a keeper whose
// serving version is held and whose failover state is *demoted — the same
// bookkeeping whether the attempt traveled alone (KeeperFleet.Keep) or in a
// batched wave (KeeperFleet.Tick): zero-grant detection, demotion once the
// serving version is dying, installation, re-promotion. It returns nil once
// the gateway has installed g, and the caller then takes g's version as its
// serving one; g is read, never kept.
func (s *Service) applyOutcome(gw GatewayInstaller, held *packet.ResInfo, demoted *bool, g *EERGrant, err error) error {
	now := s.clock()
	id := reservation.ID{SrcAS: held.SrcAS, Num: held.ResID}
	if err == nil && g.Res.BwKbps == 0 && held.BwKbps > 0 {
		// A zero-bandwidth grant for a flow that had bandwidth is a failed
		// renewal (the satellite of the SameBandwidth bug): don't install
		// the dead version, keep serving on the old one.
		s.metrics.RenewZeroBw.Add(1)
		err = ErrZeroGrant
	}
	if err != nil {
		// Old versions serve seamlessly until expiry (§4.2), so failure
		// alone is not demotion; only when the newest version is dead or
		// dying this second does the flow drop to best-effort.
		if !*demoted && held.ExpT <= now+1 {
			*demoted = true
			gw.Demote(held.ResID)
			s.metrics.Demotions.Add(1)
			s.metrics.TraceID(int64(now)*1e9, telemetry.EvDemote, id, false, "renewal failed")
		}
		return err
	}
	if err := gw.Install(g.Res, g.EER, g.Path, g.HopAuths); err != nil {
		return err
	}
	if *demoted {
		*demoted = false
		s.metrics.Promotions.Add(1)
		s.metrics.TraceID(int64(now)*1e9, telemetry.EvPromote, id, true, "")
	}
	return nil
}

// KeeperFleet keeps many EERs alive. Tick renews the due ones in batched
// waves: EERs whose grants ride the same SegR chain (same SegIDs, Splits,
// and Path) are grouped and sent as EEBatchRenewReqs of at most BatchSize
// items, so a renewal storm costs one MAC verification and one shard-lock
// sweep per wave instead of per EER. Keep renews one keeper alone, with a
// solo request, and applies its outcome exactly as a wave item's (zero-grant
// detection, demote/re-promote, counters).
//
// The fleet keeps no keeper and no grant: Add copies a keeper's version into
// columns indexed by keeper, in the order Add took them — the order a wave
// renews them in — and each renewal writes its keeper's columns in place.
// What keepers share is kept once: a chain's slices per chain, and per kind
// (chain, source AS, installer, lead) the rest. The σs are the installer's
// alone: it stamps packets with them, and no renewal reads the old ones.
//
// Not safe for concurrent use; drive it from one maintenance loop.
type KeeperFleet struct {
	svc *Service
	// BatchSize caps one wave's item count (bounding message size and the
	// blast radius of a transport failure, which fails the whole wave).
	BatchSize int

	// Keeper i serves version ver[i] of EER (kinds[kind[i]].src, resID[i]):
	// bw[i] kbps until expT[i], from host srcHost[i] to host dstHost[i], over
	// its kind's chain. Bit i of demoted (bit i%64 of word i/64) is its
	// failover state, renewals[i] and failures[i] its counts (32 bits: 136
	// years at one attempt a second).
	resID, bw, expT    []uint32
	ver                []uint16
	srcHost, dstHost   []uint32
	demoted            []uint64
	renewals, failures []uint32
	kind               []uint32

	// kinds holds what keepers share, kindOf finds it again.
	kinds  []keeperKind
	kindOf map[keeperKind]uint32
	// chains[c] carries chain c's Path, PathHops, Splits and SegIDs, shared
	// with the grants the fleet's keepers were built from (read-only, like
	// every grant's chain). Add finds a grant's chain by its slices' backing
	// arrays (chainAt) and, the first time it meets those, by content
	// (chainKey): a fleet never removes keepers, so each map holds at most
	// one entry per Add.
	chains  []EERGrant
	chainAt map[chainRef]int32
	chainBy map[string]int32

	// Tick's buffers, reused from tick to tick: due[c] collects the due
	// keepers of chain c, order the chains with any, by their first.
	order []int32
	due   [][]int32
}

// keeperKind is what the keepers of a fleet share in groups: the chain they
// ride, their source AS, their installer and their lead time.
type keeperKind struct {
	chain int32
	src   topology.IA
	gw    GatewayInstaller
	lead  uint32
}

// chainRef names a chain by the backing arrays of its slices and their
// lengths. Grants that share their chain — a setup's with the directory's
// memo, a renewal's with its predecessor's — share a chainRef.
type chainRef struct {
	segIDs             *reservation.ID
	splits             *uint8
	hops               *PathHop
	nSeg, nSplit, nHop int
}

// first returns the address of s's first element, nil when s is empty.
func first[T any](s []T) *T {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

// DefaultBatchSize is KeeperFleet's wave-size cap when BatchSize is 0.
const DefaultBatchSize = 4096

// NewKeeperFleet builds an empty fleet over one source AS's service.
func NewKeeperFleet(svc *Service) *KeeperFleet {
	return &KeeperFleet{
		svc: svc, BatchSize: DefaultBatchSize,
		kindOf: make(map[keeperKind]uint32), chainAt: make(map[chainRef]int32), chainBy: make(map[string]int32),
	}
}

// Add takes ownership of k: it copies the version of the keeper's grant, its
// lead and installer into the fleet's columns as a new keeper, not demoted,
// and clears k, which must not be used again. It returns the new keeper's
// index. k must keep an EER of the fleet's service, and its installer must be
// comparable (every GatewayInstaller of this module is a pointer).
func (f *KeeperFleet) Add(k *EERKeeper) int {
	g := k.grant
	c := f.chainOf(g)
	kk := keeperKind{chain: c, src: g.ID.SrcAS, gw: k.gw, lead: k.lead}
	ki, ok := f.kindOf[kk]
	if !ok {
		ki = uint32(len(f.kinds))
		f.kinds = append(f.kinds, kk)
		f.kindOf[kk] = ki
	}
	f.grow()
	i := len(f.expT)
	f.resID = append(f.resID, g.Res.ResID)
	f.bw = append(f.bw, g.Res.BwKbps)
	f.expT = append(f.expT, g.Res.ExpT)
	f.ver = append(f.ver, g.Res.Ver)
	f.srcHost = append(f.srcHost, g.EER.SrcHost)
	f.dstHost = append(f.dstHost, g.EER.DstHost)
	if i%64 == 0 {
		f.demoted = append(f.demoted, 0)
	}
	f.renewals = append(f.renewals, 0)
	f.failures = append(f.failures, 0)
	f.kind = append(f.kind, ki)
	*k = EERKeeper{}
	return i
}

// chainOf returns the index of g's chain, adding the chain if it is new.
func (f *KeeperFleet) chainOf(g *EERGrant) int32 {
	ref := chainRef{first(g.SegIDs), first(g.Splits), first(g.PathHops), len(g.SegIDs), len(g.Splits), len(g.PathHops)}
	if c, ok := f.chainAt[ref]; ok {
		return c
	}
	key := chainKey(g)
	c, ok := f.chainBy[key]
	if !ok {
		// Equal chains (Path is PathHops' hop fields), kept once.
		c = int32(len(f.chains))
		f.chainBy[key] = c
		f.chains = append(f.chains, EERGrant{Path: g.Path, PathHops: g.PathHops, Splits: g.Splits, SegIDs: g.SegIDs})
		f.due = append(f.due, nil)
	}
	f.chainAt[ref] = c
	return c
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

// grow makes room for one more keeper. The columns grow by a sixteenth,
// where append grows by a quarter or more, so that a large fleet's spare
// capacity stays a small share of its bytes (Add copies each keeper about
// sixteen times over for it), and the 32-bit ones share one allocation,
// which the heap rounds up once rather than once per column.
func (f *KeeperFleet) grow() {
	l := len(f.expT)
	if l < cap(f.expT) {
		return
	}
	c := l + l/16 + 16
	cols := [...]*[]uint32{&f.resID, &f.bw, &f.expT, &f.srcHost, &f.dstHost, &f.renewals, &f.failures, &f.kind}
	block := make([]uint32, len(cols)*c)
	for j, col := range cols {
		*col = block[j*c : j*c+copy(block[j*c:], *col) : (j+1)*c]
	}
	f.ver, f.demoted = regrow(f.ver, c), regrow(f.demoted, (c+63)/64)
}

// regrow returns a copy of s with capacity c.
func regrow[T any](s []T, c int) []T {
	t := make([]T, len(s), c)
	copy(t, s)
	return t
}

// Grant returns keeper i's serving version without its σs (HopAuths is nil):
// the fleet keeps none, its installer holds them. The chain's slices are
// read-only and shared.
//
//colibri:nomalloc
func (f *KeeperFleet) Grant(i int) EERGrant {
	k := &f.kinds[f.kind[i]]
	c := &f.chains[k.chain]
	return EERGrant{
		ID: reservation.ID{SrcAS: k.src, Num: f.resID[i]}, Res: f.Res(i), EER: packet.EERInfo{SrcHost: f.srcHost[i], DstHost: f.dstHost[i]},
		Path: c.Path, PathHops: c.PathHops, Splits: c.Splits, SegIDs: c.SegIDs,
	}
}

// Demoted counts keepers currently demoted to best-effort.
//
//colibri:nomalloc
func (f *KeeperFleet) Demoted() int {
	n := 0
	for _, w := range f.demoted {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsDemoted reports keeper i's failover state, and setDemoted sets it.
//
//colibri:nomalloc
func (f *KeeperFleet) IsDemoted(i int) bool { return f.demoted[i/64]>>(i%64)&1 != 0 }

func (f *KeeperFleet) setDemoted(i int, d bool) {
	bit := uint64(1) << (i % 64)
	if d {
		f.demoted[i/64] |= bit
	} else {
		f.demoted[i/64] &^= bit
	}
}

// Res returns keeper i's serving ResInfo.
//
//colibri:nomalloc
func (f *KeeperFleet) Res(i int) packet.ResInfo {
	return packet.ResInfo{SrcAS: f.kinds[f.kind[i]].src, ResID: f.resID[i], BwKbps: f.bw[i], ExpT: f.expT[i], Ver: f.ver[i]}
}

// item returns what a wave reads of keeper i: its serving version, renewed
// at the same bandwidth.
func (f *KeeperFleet) item(i int) renewItem {
	return renewItem{
		ID: reservation.ID{SrcAS: f.kinds[f.kind[i]].src, Num: f.resID[i]}, Ver: f.ver[i], BwKbps: f.bw[i], ExpT: f.expT[i],
		SrcHost: f.srcHost[i], DstHost: f.dstHost[i], NewBwKbps: uint64(f.bw[i]),
	}
}

// apply applies one renewal attempt's outcome to keeper i, in place.
func (f *KeeperFleet) apply(i int, g *EERGrant, err error) error {
	held, demoted := f.Res(i), f.IsDemoted(i)
	err = f.svc.applyOutcome(f.kinds[f.kind[i]].gw, &held, &demoted, g, err)
	f.setDemoted(i, demoted)
	if err != nil {
		f.failures[i]++
		return err
	}
	f.set(i, g)
	f.renewals[i]++
	return nil
}

// set makes g's version keeper i's serving one.
func (f *KeeperFleet) set(i int, g *EERGrant) {
	f.bw[i], f.expT[i], f.ver[i] = g.Res.BwKbps, g.Res.ExpT, g.Res.Ver
	f.srcHost[i], f.dstHost[i] = g.EER.SrcHost, g.EER.DstHost
}

// Keep runs keeper i's maintenance step alone, lead seconds (at least 1)
// before expiry whatever its kind's lead: a no-op while its version is fresh
// and it is not demoted, otherwise one solo renewal at its bandwidth whose
// outcome is applied as a wave item's. The error is the renewal's failure,
// if any; the flow keeps working (reserved or best-effort) either way.
func (f *KeeperFleet) Keep(i int, lead uint32) error {
	if !f.IsDemoted(i) && f.expT[i] > f.svc.clock()+max(lead, 1) {
		return nil
	}
	g := f.Grant(i)
	next, err := f.svc.RenewEER(&g, uint64(f.bw[i]))
	return f.apply(i, next, err)
}

// Renew renews keeper i at bwKbps now, whatever its expiry, and installs the
// new version: a host's explicit renewal (§4.2). Unlike Keep it neither
// demotes nor counts; a failure, the CServ's or the installer's, leaves the
// keeper as it was and is returned.
func (f *KeeperFleet) Renew(i int, bwKbps uint64) error {
	g := f.Grant(i)
	next, err := f.svc.RenewEER(&g, bwKbps)
	if err == nil {
		err = f.kinds[f.kind[i]].gw.Install(next.Res, next.EER, next.Path, next.HopAuths)
	}
	if err == nil {
		f.set(i, next)
	}
	return err
}

// Tick runs one maintenance step: collect the due keepers into their chains'
// lists (chains ordered by their first due keeper, keepers in insertion
// order — no map iteration, so runs are deterministic), renew each chain's in
// waves of at most BatchSize, and apply each item's outcome to its keeper's
// columns. It returns the number of renewal attempts that failed this tick.
//
//colibri:nomalloc
func (f *KeeperFleet) Tick() int {
	now := f.svc.clock()
	f.order = f.order[:0]
	for i, exp := range f.expT {
		k := &f.kinds[f.kind[i]]
		if exp > now+k.lead && !f.IsDemoted(i) {
			continue
		}
		if len(f.due[k.chain]) == 0 {
			f.order = append(f.order, k.chain) //colibri:allow(nomalloc) — amortised growth, one entry per chain
		}
		f.due[k.chain] = append(f.due[k.chain], int32(i)) //colibri:allow(nomalloc) — amortised growth, one entry per due keeper
	}
	size := f.BatchSize
	if size <= 0 {
		size = DefaultBatchSize
	}
	failures := 0
	for _, c := range f.order {
		due := f.due[c]
		for off := 0; off < len(due); off += size {
			wave := due[off:min(off+size, len(due))]
			f.svc.renewWave(&f.chains[c], len(wave),
				func(j int) renewItem { return f.item(int(wave[j])) },
				func(j int, g *EERGrant, err error) {
					if f.apply(int(wave[j]), g, err) != nil {
						failures++
					}
				})
		}
		f.due[c] = due[:0]
	}
	return failures
}
