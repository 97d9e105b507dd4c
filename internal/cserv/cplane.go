// cplane.go — CPlane, a sharded, batched control-plane engine for one AS: the
// one store of admission state behind the Service's handlers.
//
// It is built for the million-flow regime the paper targets (§6: "a single
// CServ instance can handle the renewal load of hundreds of thousands of
// EERs") and partitions the reservation state by a hash of the owning SegR's
// ID into 2^k independent shards — the sub-services of App. D, whose split of
// a transfer-AS admission into one step per SegR is withPath holding both
// shards and eerPath.charge undoing the first ledger when the second refuses
// (cplane_live.go). Each shard owns
//
//   - an admission.State — the paper's memoized SegR admitter — over a clone
//     of the AS whose link capacities are divided by the shard count (so the
//     sum of all shards' grants respects the physical capacities),
//   - one record per SegR: its grant and a keyless restree demand profile
//     tracking admitted EER bandwidth over discretized time (see
//     internal/restree and DESIGN.md §7), reached by ID through a map and by
//     handle through the shard's SegR registry, and
//   - the EER records admitted against those SegRs, in one flat table, each
//     of which is the only handle on its own charge: what was charged is
//     withdrawn by handing the record's window and bandwidth back to the
//     profile. A record names its covering SegRs by handle (segH).
//
// An EER's record lives in the shard of its first covering SegR. An operation
// on it takes that shard's lock and, at a transfer AS, the second SegR's
// shard's too, always in ascending shard order (cplane_live.go), so shards
// never deadlock against each other. Counts reads atomics and takes no lock.
package cserv

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"colibri/internal/admission"
	"colibri/internal/flattab"
	"colibri/internal/reservation"
	"colibri/internal/restree"
	"colibri/internal/topology"
)

// CPlane errors. All are sentinels: the wave path must not allocate.
var (
	ErrUnknownSegR = errors.New("cplane: unknown segment reservation")
	ErrSegRInUse   = errors.New("cplane: segment reservation has live EERs")
	ErrUnknownEER  = errors.New("cplane: unknown end-to-end reservation")
	// ErrInsufficient rejects an EER setup or renewal whose demand exceeds
	// the SegR's free bandwidth over the requested window (setups are
	// full-or-nothing; renewals fall back to the previous version).
	ErrInsufficient = errors.New("cplane: insufficient bandwidth on segment reservation")
	// ErrTransferEER refuses a renewal that names only the first of the two
	// SegRs a transfer-AS record (§4.7) is charged against: the second
	// charge is out of its reach.
	ErrTransferEER = errors.New("cplane: transfer-AS EER requires path renewal")
	// ErrBandwidthRange refuses an EER of more than MaxEERKbps: the data
	// plane carries an EER's bandwidth in 32 bits (packet.ResInfo.BwKbps).
	ErrBandwidthRange = errors.New("cserv: EER bandwidth above 2³²−1 kbps")
	// ErrTooManySegRs refuses a SegR its shard's registry has no handle left
	// for.
	ErrTooManySegRs = errors.New("cplane: SegR registry full")
)

// MaxEERKbps is the largest EER bandwidth: what a ResInfo's 32-bit field
// carries to σ, the gateway and the routers.
const MaxEERKbps = math.MaxUint32

// CPlaneConfig configures a sharded control-plane engine.
type CPlaneConfig struct {
	AS    *topology.AS
	Split admission.TrafficSplit
	// Shards is the number of independent state partitions; it must be a
	// power of two. 0 selects 1.
	Shards int
	// EpochSeconds is the demand-ledger discretization (default 4 s);
	// LedgerEpochs the ring horizon in epochs (default 128, i.e. 512 s —
	// comfortably above the 16 s EER lifetime and the 300 s SegR lifetime).
	EpochSeconds uint32
	LedgerEpochs int
	// Clock supplies control-plane time in Unix seconds. Required.
	Clock func() uint32
}

// CPlane is the sharded engine. Methods are safe for concurrent use; calls
// touching different shards proceed in parallel.
type CPlane struct {
	shards []*cplaneShard
	mask   uint64
	// shardBits is log2 of the shard count: the bits of a handle below its
	// slot.
	shardBits uint
	clock     func() uint32

	epochSec     uint32
	ledgerEpochs int

	segCount atomic.Int64
	eerCount atomic.Int64
	admits   atomic.Uint64
	renews   atomic.Uint64
	// rejects counts real refusals (ErrInsufficient and kin); dedups counts
	// idempotent duplicates (restree.ErrExists on a retried setup); stale
	// counts renewals of EERs that no longer exist (ErrUnknownEER). The
	// split lets chaos experiments tell retry dedup from capacity refusal.
	rejects atomic.Uint64
	dedups  atomic.Uint64
	stale   atomic.Uint64

	// onExpire, when set, receives each transfer-AS record (one with two
	// covering SegRs) that Tick expires or the removal of a SegR (DropSegR,
	// TeardownSegR, AbortSegR) takes with it, after the shard locks are
	// released. The Service uses it to return the record's charge to
	// the §4.7 transfer-split accounting, which otherwise never learns that an
	// EER lapsed without being renewed or lost a covering SegR.
	onExpire func(seg, seg2 reservation.ID, bwKbps uint64)
}

// cplaneShard is one shard's admission state, owned by the CPlane front end:
// reached only under sh.mu from CPlane's methods, never aliased out
// (colibri-vet enforces this).
//
//colibri:shardowned
type cplaneShard struct {
	mu   sync.Mutex
	adm  *admission.State
	segs map[reservation.ID]*segRec
	// reg is the SegR registry, indexed by a handle's slot; free lists the
	// slots no SegR holds, the last freed first.
	reg  []regSlot
	free []uint32
	// eers holds one record per EER, in a flat table: a renewal finds its
	// record with one probe and writes the new version through the pointer it
	// got (DESIGN.md §7).
	eers flattab.Table[cpEER]
	// held holds the held piece of every record whose held flag is set, and
	// nothing else: it is empty unless some EER has renewed downward.
	held flattab.Table[heldPiece]
}

// segRec is what a shard keeps per SegR: the demand profile of the EERs
// admitted over it and its current grant at this AS, which bounds that demand.
// The grant is the admitter's too (admission.State.GrantOf); the record keeps a
// copy so that an admission reads both with one probe and without the
// admitter's lock.
type segRec struct {
	led   restree.Profile
	grant uint64
	// h is the SegR's handle. named: some EER record has named it, so a drop
	// must look for records before the handle can be reused.
	h     segH
	named bool
}

// segH is a SegR's handle: one plus its slot in its shard's registry, above
// the shard's index, which takes the low shardBits bits — an EER record's
// second SegR may live in another shard, and its handle says which. A
// handle names one SegR from AddSegR until the SegR is dropped and no record
// names it any more (purge), after which its slot may be reused.
//
// The zero handle names no SegR (a record's absent second one), and
// unknownSegR a SegR an operation names that the shard does not hold. No
// record carries unknownSegR, so a record never matches a path over a SegR
// this AS does not hold.
type segH uint32

const unknownSegR = ^segH(0)

// regSlot is one slot of a shard's SegR registry: the ID and record of the
// SegR whose handle it is, or zero while the slot is free.
type regSlot struct {
	id  reservation.ID
	rec *segRec
}

// slot returns the registry slot of handle h, which must name a SegR; the
// caller holds the lock of h's shard.
//
//colibri:nomalloc
func (c *CPlane) slot(h segH) *regSlot {
	return &c.shards[uint32(h)&uint32(c.mask)].reg[uint32(h)>>c.shardBits-1]
}

// shardOf returns the index of handle h's shard.
func (c *CPlane) shardOf(h segH) int { return int(uint32(h) & uint32(c.mask)) }

// regFull reports whether shard sh, locked, has no handle left to give: its
// slots stay below the one unknownSegR would decode to.
func (c *CPlane) regFull(sh *cplaneShard) bool {
	return len(sh.free) == 0 && uint64(len(sh.reg))+2 >= 1<<(32-c.shardBits)
}

// register gives SegR id's fresh record r a handle in shard si (sh, locked,
// not regFull) and files it under id.
func (c *CPlane) register(sh *cplaneShard, si int, id reservation.ID, r *segRec) {
	var slot uint32
	if n := len(sh.free); n > 0 {
		slot, sh.free = sh.free[n-1], sh.free[:n-1]
	} else {
		slot = uint32(len(sh.reg))
		sh.reg = append(sh.reg, regSlot{})
	}
	sh.reg[slot] = regSlot{id: id, rec: r}
	r.h = segH((slot+1)<<c.shardBits | uint32(si))
	sh.segs[id] = r
}

// cpEER is the shard-local record of one admitted EER version. seg is the
// handle of its primary covering SegR, in whose shard the record lives; seg2
// is the second charged SegR at a transfer AS (§4.7: an EER entering on an up
// segment and leaving on a core segment consumes bandwidth on both), and 0
// everywhere else. ver is the protocol version of the admitted record, used
// by the live request path for idempotent dedup of retries.
//
// The record is the handle on its charge: bw over [startT, expT) is what the
// covering ledgers were charged with, and handing exactly that back is what
// withdraws it (eerPath.discharge). Every write of bw, startT or expT
// therefore goes with a charge of the same values.
//
// A record may have a second charge, its held piece (§4.2): what an older
// version of the EER that is still valid needs beyond the record's own. The
// piece lives in the shard's held table and the record only flags it, in what
// was padding, so a record costs the same bytes with or without one.
//
// The record is 28 bytes of 4-byte alignment, so the table's record with its
// key is 40 (DESIGN.md §7): bw is 32 bits, the width a ResInfo carries it in,
// and no EER of more is admitted (MaxEERKbps).
type cpEER struct {
	seg  segH
	seg2 segH
	bw   uint32
	// startT is the second the charge starts at: when the setup, renewal,
	// adjustment or restore that wrote it ran.
	startT uint32
	expT   uint32
	// lastRenew is the second of the last renewal the per-EER throttle let
	// through (eerPath.allowRenew); 0 before the first.
	lastRenew uint32
	ver       uint16
	// held: the shard's held table has this record's held piece.
	held bool
}

// heldPiece is the second charge of a record whose EER renewed downward
// (§4.2 keeps every unexpired version usable, so an EER's demand is the
// maximum over its valid versions): charge over [startT, expT) on the
// record's covering ledgers, the excess of the older versions' bandwidth over
// the record's own. It never outlives its record.
type heldPiece struct {
	charge       uint64
	startT, expT uint32
}

// NewCPlane builds the engine. It panics when cfg.Clock is nil and reports a
// shard count that is not a power of two.
func NewCPlane(cfg CPlaneConfig) (*CPlane, error) {
	if cfg.Clock == nil {
		panic("cserv: CPlaneConfig.Clock is required")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 0 || cfg.Shards&(cfg.Shards-1) != 0 {
		return nil, fmt.Errorf("cserv: CPlaneConfig.Shards = %d, want a power of two", cfg.Shards)
	}
	if cfg.EpochSeconds == 0 {
		cfg.EpochSeconds = 4
	}
	if cfg.LedgerEpochs == 0 {
		cfg.LedgerEpochs = 128
	}
	c := &CPlane{
		shards:       make([]*cplaneShard, cfg.Shards),
		mask:         uint64(cfg.Shards - 1),
		shardBits:    uint(bits.TrailingZeros(uint(cfg.Shards))),
		clock:        cfg.Clock,
		epochSec:     cfg.EpochSeconds,
		ledgerEpochs: cfg.LedgerEpochs,
	}
	for i := range c.shards {
		c.shards[i] = &cplaneShard{
			adm:  admission.NewState(shardedAS(cfg.AS, cfg.Shards, i), cfg.Split),
			segs: make(map[reservation.ID]*segRec),
		}
	}
	return c, nil
}

// OnExpire registers the callback invoked by Tick for each expired transfer-AS
// record and by a SegR's removal for each one it takes (see the field doc). Set it
// before the first Tick; it must not call back into the CPlane.
func (c *CPlane) OnExpire(fn func(seg, seg2 reservation.ID, bwKbps uint64)) {
	c.onExpire = fn
}

// shardedAS clones an AS for shard i of `shards`, dividing every link
// capacity (and the internal fabric bound) so the per-shard shares sum
// EXACTLY to the physical value: shard i receives cap/shards plus one of the
// cap%shards remainder units. Low-capacity links may legitimately get 0 on
// some shards — rounding every shard up to 1 would let K shards of a
// (K-1)-Kbps link admit more than the link carries.
func shardedAS(as *topology.AS, shards, i int) *topology.AS {
	if shards <= 1 {
		return as
	}
	out := &topology.AS{
		IA:         as.IA,
		Core:       as.Core,
		Interfaces: make(map[topology.IfID]*topology.Interface, len(as.Interfaces)),
	}
	out.InternalCapacityKbps = shardShare(as.InternalCapacityKbps, shards, i)
	for _, id := range as.SortedIfIDs() {
		intf := *as.Interfaces[id]
		link := *intf.Link
		link.CapacityKbps = shardShare(link.CapacityKbps, shards, i)
		intf.Link = &link
		out.Interfaces[id] = &intf
	}
	return out
}

// shardShare splits cap across `shards` with the remainder spread over the
// lowest-indexed shards, so the shares sum exactly to cap.
func shardShare(cap uint64, shards, i int) uint64 {
	share := cap / uint64(shards)
	if uint64(i) < cap%uint64(shards) {
		share++
	}
	return share
}

// shardIndex maps a reservation ID to its shard index with a splitmix64-
// style finalizer, so consecutive Nums from one source spread across shards.
//
//colibri:nomalloc
func (c *CPlane) shardIndex(id reservation.ID) int {
	x := uint64(id.SrcAS)*0x9e3779b97f4a7c15 + uint64(id.Num)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x & c.mask)
}

//colibri:nomalloc
func (c *CPlane) shardFor(id reservation.ID) *cplaneShard {
	return c.shards[c.shardIndex(id)]
}

// AddSegR admits a segment reservation on its shard and provisions its EER
// demand ledger. The request's MaxKbps is the demand; the returned grant is
// the bandwidth available to EERs over this SegR at this AS.
func (c *CPlane) AddSegR(req admission.Request) (uint64, error) {
	si := c.shardIndex(req.ID)
	sh := c.shards[si]
	sh.mu.Lock()
	r, known := sh.segs[req.ID]
	if !known && c.regFull(sh) {
		sh.mu.Unlock()
		c.rejects.Add(1)
		return 0, ErrTooManySegRs
	}
	grant, err := sh.adm.AdmitSegR(req)
	if err != nil {
		sh.mu.Unlock()
		c.rejects.Add(1)
		return 0, err
	}
	if !known {
		// Re-admitting a known ID (an idempotent replay or a version bump)
		// must not wipe the ledger of EERs already charged against it.
		r = &segRec{led: *restree.NewProfile(c.ledgerEpochs, c.epochSec)}
		c.register(sh, si, req.ID, r)
	}
	r.grant = grant
	sh.mu.Unlock()
	if !known {
		c.segCount.Add(1)
	}
	c.admits.Add(1)
	return grant, nil
}

// TeardownSegR releases a SegR. It fails with ErrSegRInUse while EERs are
// still admitted against it (tear those down or let them expire first). The
// records of EERs that lapsed over it go with it, as DropSegR's do.
func (c *CPlane) TeardownSegR(id reservation.ID) error {
	sh := c.shardFor(id)
	now := c.clock()
	sh.mu.Lock()
	r, ok := sh.segs[id]
	if !ok {
		sh.mu.Unlock()
		return ErrUnknownSegR
	}
	r.led.Advance(now)
	if r.led.Len() > 0 {
		sh.mu.Unlock()
		return ErrSegRInUse
	}
	c.detach(sh, id)
	sh.mu.Unlock()
	c.purge(r)
	return nil
}

// detach removes SegR id from shard sh, which the caller has locked — its
// admission, its entry under id, its count — and returns its record, or nil
// when sh holds no such SegR. No EER can be admitted over it afterwards, but
// its handle stays taken until purge has removed the records naming it.
func (c *CPlane) detach(sh *cplaneShard, id reservation.ID) *segRec {
	r, ok := sh.segs[id]
	if !ok {
		return nil
	}
	sh.adm.Release(id)
	delete(sh.segs, id)
	c.segCount.Add(-1)
	return r
}

// SetupEER is SetupEERPath over the one covering SegR seg, at version 0. It
// exists only for the end-to-end benchmark's CPlane probe (bench/probes.go),
// until that probe drives the path face the handlers use.
func (c *CPlane) SetupEER(eer, seg reservation.ID, bwKbps uint64, expT uint32) error {
	return c.SetupEERPath(eer, []reservation.ID{seg}, bwKbps, expT, 0)
}

// RenewEER is RenewEERPath over the one covering SegR seg, at version 0. It
// exists only for the end-to-end benchmark's CPlane probe (bench/probes.go),
// until that probe drives the path face the handlers use.
func (c *CPlane) RenewEER(eer, seg reservation.ID, bwKbps uint64, expT uint32) (uint64, error) {
	return c.RenewEERPath(eer, []reservation.ID{seg}, bwKbps, expT, 0)
}

// tallySetup counts one setup outcome. A duplicate setup is an idempotent
// retry hitting committed state, not a refusal — counted separately so dedup
// stays tellable from capacity rejection.
func (c *CPlane) tallySetup(err error) {
	switch err {
	case nil:
		c.eerCount.Add(1)
		c.admits.Add(1)
	case restree.ErrExists:
		c.dedups.Add(1)
	default:
		c.rejects.Add(1)
	}
}

// headroom is a SegR's grant minus the EER demand already charged against it
// (0 when the demand has reached the grant).
func headroom(grantKbps uint64, demand int64) uint64 {
	if uint64(demand) >= grantKbps {
		return 0
	}
	return grantKbps - uint64(demand)
}

// tallyRenew counts one renewal outcome.
func (c *CPlane) tallyRenew(err error, gone bool) {
	switch {
	case err == nil:
		c.renews.Add(1)
	case err == ErrUnknownEER:
		c.stale.Add(1)
	default:
		c.rejects.Add(1)
	}
	if gone {
		c.eerCount.Add(-1)
	}
}

// Tick expires EERs whose versions have lapsed, drops the held pieces that
// have lapsed, and advances every ledger. It returns the number of EERs
// removed. Each shard's records are walked in their table's dense order, from
// the last down, deleting in place; the order is deterministic, and no outcome
// depends on it (a discharge touches only its own ledgers, and the transfer
// split only ever subtracts on expiry).
func (c *CPlane) Tick() int {
	now := c.clock()
	total := 0
	var pairs []pairRef
	for _, sh := range c.shards {
		sh.mu.Lock()
		for i := sh.eers.Len() - 1; i >= 0; i-- {
			id, e := sh.eers.At(i)
			expired := e.expT <= now
			if !expired && !(e.held && sh.held.Get(id).expT <= now) {
				continue
			}
			if e.seg2 != 0 {
				pairs = append(pairs, pairRef{eer: id, seg: e.seg, seg2: e.seg2})
				continue
			}
			p := c.pathOf(sh, e.seg, now)
			if !expired {
				p.unhold(id, e)
				continue
			}
			p.release(id, e)
			sh.eers.Delete(id)
			total++
		}
		// Each ledger advances alone, so the order does not matter.
		//colibri:allow(determinism)
		for _, r := range sh.segs {
			r.led.Advance(now)
		}
		sh.mu.Unlock()
	}
	for _, r := range pairs {
		if c.removePair(r, func(e *cpEER) bool { return e.expT <= now }, now) {
			total++
		}
	}
	c.eerCount.Add(-int64(total))
	return total
}

// pairRef names a transfer-AS record found under one shard lock, for removal
// under both (removePair): the EER and its two SegRs' handles.
type pairRef struct {
	eer       reservation.ID
	seg, seg2 segH
}

// removePair removes a transfer-AS record, if it still exists and cond holds
// for it, under the locks of both covering SegRs' shards — so that both its
// pieces leave both ledgers with the record, and neither is left carrying a
// charge no record answers for. Tick and DropSegR find such records under one
// shard lock at a time and cannot reach the second ledger from there. A record
// that stays loses its held piece if that has lapsed by heldLapse (Tick's now;
// 0 keeps it). A record removed is reported to the expiry callback, with its
// SegRs' IDs, once the locks are released.
func (c *CPlane) removePair(r pairRef, cond func(*cpEER) bool, heldLapse uint32) (ok bool) {
	var seg, seg2 reservation.ID
	var bw uint32
	c.withHandles(r.seg, r.seg2, func(p eerPath) {
		// A record that no longer names both SegRs was rewritten since it was
		// found; whoever finds it next decides for it.
		rec := p.lookup(r.eer)
		switch {
		case rec == nil || rec.seg2 != r.seg2:
		case cond(rec):
			ok, bw = true, rec.bw
			seg, seg2 = c.slot(rec.seg).id, c.slot(rec.seg2).id
			p.release(r.eer, rec)
			p.prim.eers.Delete(r.eer)
		case rec.held && p.prim.held.Get(r.eer).expT <= heldLapse:
			p.unhold(r.eer, rec)
		}
	})
	if ok && c.onExpire != nil {
		c.onExpire(seg, seg2, uint64(bw))
	}
	return ok
}

// AllocatedKbps sums the shards' granted SegR bandwidth at an egress
// interface. Because shardedAS splits every physical capacity exactly across
// shards, the sum never exceeds the egress's reservable share — the
// aggregate half of the conservation invariant.
//
//colibri:allow(testonly) — core's TestInternetScaleScenario checks conservation at every egress through it
func (c *CPlane) AllocatedKbps(eg topology.IfID) uint64 {
	var total uint64
	for _, sh := range c.shards {
		sh.mu.Lock()
		total += sh.adm.AllocatedKbps(eg)
		sh.mu.Unlock()
	}
	return total
}

// CPlaneCounts is a lock-free snapshot of the engine's aggregate state.
// Rejects are real capacity/window refusals; Dedups are idempotent
// duplicates of committed state (retried setups); Stale are renewals of
// EERs that had already expired or were never admitted.
type CPlaneCounts struct {
	SegRs, EERs             int64
	Admits, Renews, Rejects uint64
	Dedups, Stale           uint64
}

// Counts reads the aggregate counters without taking any shard lock.
//
//colibri:nomalloc
func (c *CPlane) Counts() CPlaneCounts {
	return CPlaneCounts{
		SegRs:   c.segCount.Load(),
		EERs:    c.eerCount.Load(),
		Admits:  c.admits.Load(),
		Renews:  c.renews.Load(),
		Rejects: c.rejects.Load(),
		Dedups:  c.dedups.Load(),
		Stale:   c.stale.Load(),
	}
}
