// cplane.go — CPlane, a sharded, batched control-plane engine for one AS: the
// one registry of its SegRs and store of its admission state.
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
//   - the AS's one record per SegR (segRec): versions, grant, and a keyless
//     restree demand profile of admitted EER bandwidth (see internal/restree
//     and DESIGN.md §7), reached by ID and by handle, and a pair table that
//     also holds the §4.7 split's books, and
//   - the EER records admitted against those SegRs, in one flat table, each
//     of which is the only handle on its own charge: what was charged is
//     withdrawn by handing the record's expiry and bandwidth back to the
//     profile. A record names its covering SegRs with one handle (segH): a
//     SegR's own, or at a transfer AS one of the shard's pair table.
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
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"colibri/internal/admission"
	"colibri/internal/flattab"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/restree"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// CPlane errors. All are sentinels: the wave path must not allocate.
var (
	ErrUnknownSegR = errors.New("cplane: unknown segment reservation")
	ErrSegRExists  = errors.New("cplane: segment reservation already exists")
	ErrNoPending   = errors.New("cplane: no pending segment reservation version")
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
	// ErrBelowAllocated refuses an activation whose pending version is below
	// the EER bandwidth the SegR carries (§4.2).
	ErrBelowAllocated = errors.New("cplane: pending segment reservation version below allocated EER bandwidth")
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
	// pairs is the pair table, indexed by a pair handle's slot: the two SegRs
	// of the transfer-AS records whose cover it is, the first of them in this
	// shard. pairFree lists the slots no pair holds, the last freed first.
	pairs    []segPair
	pairFree []uint32
	// held holds the held piece of every record whose held flag is set, and
	// nothing else: it is empty unless some EER has renewed downward.
	held flattab.Table[heldPiece]
}

// segRec is the AS's one record of a SegR (§3.3: "each AS locally stores the
// final amount of bandwidth granted"), read and written under its shard's lock
// only (readers outside get copies, GetSegR): its protocol state, the demand
// profile of the EERs admitted over it and its grant at this AS, which bounds
// that demand. The grant is the admitter's too (admission.State.GrantOf); the
// record keeps a copy so that an admission reads both with one probe and
// without the admitter's lock.
type segRec struct {
	led   restree.Profile
	grant uint64
	// h is the SegR's handle. named: some EER record or leg has named it, so
	// a drop must look for records and pairs before the handle can be reused.
	h     segH
	named bool
	// pairs are the handles of the pairs whose first SegR this is.
	pairs []segH
	// splitTotal is a core-SegR's §4.7 split demand: that of the up→core
	// pairs it is the second SegR of.
	splitTotal uint64
	// The fields of reservation.SegR: the active version and a pending one
	// awaiting activation (§4.2; AddSegR's active version never lapses), and
	// at the initiator only, behind init, the segment and its tokens.
	segType segment.Type
	in, eg  topology.IfID
	minKbps uint64
	active  reservation.Version
	pending *reservation.Version
	init    *segInit
}

type segInit struct {
	seg    *segment.Segment
	tokens [][packet.HVFLen]byte
}

// snapshot copies SegR id's record r, which the caller has locked.
func (r *segRec) snapshot(id reservation.ID) *reservation.SegR {
	out := &reservation.SegR{ID: id, SegType: r.segType, In: r.in, Eg: r.eg, MinKbps: r.minKbps, Active: r.active}
	if r.pending != nil {
		v := *r.pending
		out.Pending = &v
	}
	if r.init != nil {
		out.Seg, out.Tokens = r.init.seg, r.init.tokens
	}
	return out
}

// lapsed reports whether both of r's versions have expired by now.
func (r *segRec) lapsed(now uint32) bool {
	return r.active.Expired(now) && (r.pending == nil || r.pending.Expired(now))
}

// segH is a SegR's handle: one plus its slot in its shard's registry, above
// the shard's index, which takes the low shardBits bits — an EER record's
// second SegR may live in another shard, and its handle says which. A
// handle names one SegR from AddSegR until the SegR is dropped and no record
// names it any more (purge), after which its slot may be reused.
//
// A handle with pairBit set is a pair handle instead: the slot, below the
// bit, of a pair of SegRs in the pair table of the first one's shard. It names
// the two SegRs a transfer-AS record is charged against (§4.7) from the first
// record that names them until either SegR goes (purge). SegR handles stay
// below the bit (regFull).
//
// The zero handle names nothing, and unknownSegR a SegR or a pair an
// operation names that the shard does not hold. No record carries
// unknownSegR, so a record never matches a path over a SegR this AS does not
// hold.
type segH uint32

const (
	pairBit     = segH(1) << 31
	unknownSegR = ^segH(0)
)

// segPair is one slot of a shard's pair table: the handles of the two SegRs
// of a pair, zero while the slot is free, at an up→core pair the §4.7 split's
// books (splitBooks), and the times the slot was freed (eerPath.books).
type segPair struct {
	h, h2           segH
	gen             uint32
	demand, granted uint64
}

// segsOf returns the SegR handles cover names: its own SegR's, with 0 for
// none, or the two of its pair in sh's table. The caller holds sh's lock, sh
// the shard of the record that carries cover.
//
//colibri:nomalloc
func (sh *cplaneShard) segsOf(cover segH) (h, h2 segH) {
	if cover&pairBit == 0 {
		return cover, 0
	}
	p := sh.pairs[cover&^pairBit]
	return p.h, p.h2
}

// pairOf returns the handle of the pair (r.h, h2) in shard sh, r's, which the
// caller has locked, or unknownSegR when no record has named that pair yet or
// r is nil.
//
//colibri:nomalloc
func (sh *cplaneShard) pairOf(r *segRec, h2 segH) segH {
	if r == nil {
		return unknownSegR
	}
	for _, ph := range r.pairs {
		if sh.pairs[ph&^pairBit].h2 == h2 {
			return ph
		}
	}
	return unknownSegR
}

// intern gives the pair of SegR r, held by shard sh, which the caller has
// locked, and SegR h2 a handle in sh's pair table. Only the table's and r's
// list's growth allocates.
//
//colibri:nomalloc
func (sh *cplaneShard) intern(r *segRec, h2 segH) segH {
	var slot uint32
	if n := len(sh.pairFree); n > 0 {
		slot, sh.pairFree = sh.pairFree[n-1], sh.pairFree[:n-1]
	} else {
		slot = uint32(len(sh.pairs))
		sh.pairs = append(sh.pairs, segPair{}) //colibri:allow(nomalloc) — amortized pair-table growth
	}
	sh.pairs[slot].h, sh.pairs[slot].h2 = r.h, h2
	ph := pairBit | segH(slot)
	r.pairs = append(r.pairs, ph) //colibri:allow(nomalloc) — amortized growth of the SegR's pair list
	return ph
}

// dropPair frees pair ph of p's primary shard, p being the path of its two
// SegRs, once no record names it: its split demand leaves its core-SegR's
// total, its first SegR forgets it, and its generation moves on, so no leg that
// admitted into it touches the books of the pair that takes the slot next.
func (p *eerPath) dropPair(ph segH) {
	slot := uint32(ph &^ pairBit)
	b := &p.prim.pairs[slot]
	p.rec[1].splitTotal -= min(p.rec[1].splitTotal, b.demand)
	p.rec[0].pairs = slices.DeleteFunc(p.rec[0].pairs, func(x segH) bool { return x == ph })
	*b = segPair{gen: b.gen + 1}
	p.prim.pairFree = append(p.prim.pairFree, slot)
}

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
// handles stay below pairBit.
func (c *CPlane) regFull(sh *cplaneShard) bool {
	return len(sh.free) == 0 && uint64(len(sh.reg))+2 > 1<<(31-c.shardBits)
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

// cpEER is the shard-local record of one admitted EER version. cover names
// its covering SegRs: the handle of its one SegR, or at a transfer AS (§4.7:
// an EER entering on an up segment and leaving on a core segment consumes
// bandwidth on both) the pair handle of its two. The record lives in the
// shard of the first, its primary covering SegR, whose pair table holds the
// pair. ver is the protocol version of the admitted record, used by the live
// request path for idempotent dedup of retries.
//
// The record is the handle on its charge: bw until expT is what the covering
// ledgers were charged with, from the second the setup, renewal, adjustment
// or restore that wrote it ran, and handing exactly that back is what
// withdraws it (eerPath.discharge). A charge starts where eerPath.charge has
// just advanced each ledger to, and a ledger's floor never moves back, so the
// floor has reached every live charge's start and the record need not keep
// it. Every write of bw or expT therefore goes with a charge of the same
// values.
//
// A record may have a second charge, its held piece (§4.2): what an older
// version of the EER that is still valid needs beyond the record's own. The
// piece lives in the shard's held table and the record only flags it, in what
// was padding, so a record costs the same bytes with or without one.
//
// The record is 16 bytes of 4-byte alignment, so the table's record with its
// key is 24 (DESIGN.md §7): bw is 32 bits, the width a ResInfo carries it in,
// and no EER of more is admitted (MaxEERKbps).
type cpEER struct {
	cover segH
	bw    uint32
	expT  uint32
	ver   uint16
	// stamp is the low byte of the second of the last renewal the per-EER
	// throttle let through (eerPath.allowRenew), once flags has flagStamped.
	stamp uint8
	flags uint8
}

// A record's flags.
const (
	// flagHeld: the shard's held table has the record's held piece.
	flagHeld = 1 << iota
	// flagStamped: the throttle has let a renewal through, in stamp.
	flagStamped
)

// held reports whether the shard's held table has e's held piece.
func (e *cpEER) held() bool { return e.flags&flagHeld != 0 }

// renewedAt reports whether the throttle let a renewal of e through in second
// now. The stamp keeps that second's low byte, which names it exactly while e
// is live: every renewal a hop leg makes is stamped, so a live record's last
// stamp is less than one EER lifetime old (16 s < 256 s). A record at or past
// expT was last stamped before expT, so it never reads as renewed now. A
// record never stamped reads as renewed in second 0, as a zero 32-bit second
// did before the stamp took a byte: the decisions are the 32-bit stamp's
// (TestThrottleStampMatches32Bit).
func (e *cpEER) renewedAt(now uint32) bool {
	if e.flags&flagStamped == 0 {
		return now == 0
	}
	return e.stamp == uint8(now) && now < e.expT
}

// stampAt marks e renewed in second now.
func (e *cpEER) stampAt(now uint32) {
	e.stamp = uint8(now)
	e.flags |= flagStamped
}

// heldPiece is the second charge of a record whose EER renewed downward
// (§4.2 keeps every unexpired version usable, so an EER's demand is the
// maximum over its valid versions): charge until expT on the record's
// covering ledgers, the excess of the older versions' bandwidth over the
// record's own. Like the record's own, it is charged through eerPath.charge,
// so it is withdrawn from the floor and keeps no start. It never outlives its
// record.
type heldPiece struct {
	charge uint64
	expT   uint32
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
// the bandwidth available to EERs over this SegR at this AS. Its active
// version never lapses.
func (c *CPlane) AddSegR(req admission.Request) (uint64, error) {
	l := segLeg{req: req, segType: segment.Up, v: reservation.Version{ExpT: math.MaxUint32}}
	err := c.admitSeg(&l)
	return l.grant, err
}

// segLeg is one SegR setup or renewal at one hop (§3.3), in its caller's
// memory: admitSeg admits it tentatively, settleSeg confirms it at the
// path-wide grant or rolls it back, each under one acquisition of the SegR's
// shard lock. A renewal's undo is the admitter's entry and the grant it
// replaced.
type segLeg struct {
	req     admission.Request
	segType segment.Type
	v       reservation.Version // Ver and ExpT asked; a setup's grant once admitted
	renewal bool
	// dedup: the leg may retry a round that committed here. retry: it does,
	// answered from what that round committed, which it never rolls back;
	// activated: a renewal's version the activation round made active.
	dedup, retry, activated bool
	grant, prevGrant        uint64
	prior                   admission.Prior
}

// admitSeg is leg l's forward pass. A lost response leaves every hop
// downstream of the loss committed, so a retry (same ID, Ver and expiry) finds
// its version in the record and is answered from it: admitting it again would
// double-count the reservation. Otherwise a setup creates the SegR's record at
// its grant, and a renewal re-admits the SegR.
func (c *CPlane) admitSeg(l *segLeg) error {
	id := l.req.ID
	si := c.shardIndex(id)
	sh := c.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.segs[id]
	if l.dedup && r != nil {
		switch p := r.pending; {
		case l.renewal && p != nil && p.Ver == l.v.Ver && p.ExpT == l.v.ExpT:
			l.retry, l.grant = true, p.BwKbps
		case r.active.Ver == l.v.Ver && r.active.ExpT == l.v.ExpT:
			l.retry, l.activated, l.grant = true, l.renewal, r.active.BwKbps
		}
		if l.retry {
			return nil
		}
	}
	var err error
	switch {
	case l.renewal && r == nil:
		return ErrUnknownSegR
	case l.renewal:
		l.prevGrant = r.grant
		l.grant, l.prior, err = sh.adm.Renew(l.req)
	case r != nil:
		err = ErrSegRExists
	case c.regFull(sh):
		err = ErrTooManySegRs
	default:
		l.grant, err = sh.adm.AdmitSegR(l.req)
	}
	if err != nil {
		c.rejects.Add(1)
		return err
	}
	if r == nil {
		l.v.BwKbps = l.grant
		r = &segRec{led: *restree.NewProfile(c.ledgerEpochs, c.epochSec),
			segType: l.segType, in: l.req.In, eg: l.req.Eg, minKbps: l.req.MinKbps, active: l.v}
		c.register(sh, si, id, r)
		c.segCount.Add(1)
		c.admits.Add(1)
	} else {
		c.renews.Add(1)
	}
	r.grant = l.grant
	return nil
}

// settleSeg is leg l's response pass. With ok it fixes the grant at final, the
// path-wide grant, as a setup's active version's or a renewal's pending one's
// (alone for a version already active). Otherwise, or when that fails, it
// rolls the leg back: a fresh SegR goes with its ledger; a renewal gets its
// admitter's entry and grant back but keeps its ledger, or its admitted EER
// charges would go too; a retry keeps what its round committed.
func (c *CPlane) settleSeg(l *segLeg, final uint64, ok bool) (err error) {
	id := l.req.ID
	sh := c.shardFor(id)
	sh.mu.Lock()
	r := sh.segs[id]
	if ok {
		if err = ErrUnknownSegR; r != nil {
			err = sh.adm.AdjustGrant(id, final)
		}
		if err == nil {
			r.grant = final
			switch {
			case !l.renewal:
				r.active.BwKbps = final
			case !l.activated:
				r.pending = &reservation.Version{Ver: l.v.Ver, BwKbps: final, ExpT: l.v.ExpT}
			}
			sh.mu.Unlock()
			return nil
		}
	}
	named := false
	switch {
	case l.retry || r == nil:
	case l.renewal:
		sh.adm.UndoRenewal(id, l.prior)
		r.grant = l.prevGrant
	default:
		named = c.detach(sh, id, r)
	}
	sh.mu.Unlock()
	if named {
		c.purge(r)
	}
	return err
}

// TeardownSegR releases a SegR. It fails with ErrSegRInUse while EERs are
// still admitted against it (tear those down or let them expire first). The
// records of EERs that lapsed over it go with it, as a dropped SegR's do.
func (c *CPlane) TeardownSegR(id reservation.ID) error {
	now, err := c.clock(), ErrUnknownSegR
	c.dropIf(id, func(r *segRec) bool {
		r.led.Advance(now)
		if err = nil; r.led.Len() > 0 {
			err = ErrSegRInUse
		}
		return err == nil
	})
	return err
}

// dropIf removes SegR id if its record satisfies cond, and reports whether it
// did: under its shard's lock the SegR is detached, and the records that name
// it go after (purge).
func (c *CPlane) dropIf(id reservation.ID, cond func(*segRec) bool) bool {
	sh := c.shardFor(id)
	sh.mu.Lock()
	r := sh.segs[id]
	ok := r != nil && cond(r)
	named := ok && c.detach(sh, id, r)
	sh.mu.Unlock()
	if named {
		c.purge(r)
	}
	return ok
}

// detach takes SegR id's record r out of shard sh, which the caller has
// locked — out of the admitter, the ID map and the count, so that no EER is
// admitted over it any more — and frees its handle unless an EER record or leg
// has named it: then purge must remove those records first.
func (c *CPlane) detach(sh *cplaneShard, id reservation.ID, r *segRec) (named bool) {
	sh.adm.Release(id)
	delete(sh.segs, id)
	c.segCount.Add(-1)
	if !r.named {
		c.freeHandle(sh, r.h)
	}
	return r.named
}

// freeHandle frees handle h of shard sh, which the caller has locked.
func (c *CPlane) freeHandle(sh *cplaneShard, h segH) {
	slot := uint32(h)>>c.shardBits - 1
	sh.reg[slot], sh.free = regSlot{}, append(sh.free, slot)
}

// withSegR runs fn on SegR id's record under its shard's lock.
func (c *CPlane) withSegR(id reservation.ID, fn func(sh *cplaneShard, r *segRec) error) error {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r := sh.segs[id]; r != nil {
		return fn(sh, r)
	}
	return ErrUnknownSegR
}

// GetSegR returns a copy of SegR id's record, taken under its shard's lock.
func (c *CPlane) GetSegR(id reservation.ID) (segr *reservation.SegR, err error) {
	if err = c.withSegR(id, func(_ *cplaneShard, r *segRec) error {
		segr = r.snapshot(id)
		return nil
	}); err != nil {
		err = fmt.Errorf("%w: %s", err, id)
	}
	return segr, err
}

// InitiatedSegRs returns copies of the records of the SegRs this AS initiated,
// in ID order, for the renewal automation of §3.2.
func (c *CPlane) InitiatedSegRs() []*reservation.SegR {
	var out []*reservation.SegR
	for _, sh := range c.shards {
		sh.mu.Lock()
		// Sorted below.
		//colibri:allow(determinism)
		for id, r := range sh.segs {
			if r.init != nil {
				out = append(out, r.snapshot(id))
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// clearPending discards SegR id's pending version, which will never be
// activated, so that the SegR is due for renewal again.
func (c *CPlane) clearPending(id reservation.ID) error {
	return c.withSegR(id, func(_ *cplaneShard, r *segRec) error {
		r.pending = nil
		return nil
	})
}

// checkActivation decides an activation of SegR id to version ver before it
// is forwarded: a retry when ver is the active version, with its bandwidth;
// ErrNoPending when ver is not the pending version, and ErrBelowAllocated
// when the pending version is below the SegR's EER demand (demandMax).
func (c *CPlane) checkActivation(id reservation.ID, ver uint16) (retry bool, activeKbps uint64, err error) {
	now := c.clock()
	err = c.withSegR(id, func(_ *cplaneShard, r *segRec) error {
		switch {
		case r.active.Ver == ver:
			retry, activeKbps = true, r.active.BwKbps
		case r.pending == nil || r.pending.Ver != ver:
			return ErrNoPending
		case r.pending.BwKbps < r.demandMax(now):
			return ErrBelowAllocated
		}
		return nil
	})
	return retry, activeKbps, err
}

// activateSegR switches SegR id to its pending version, which the caller has
// checked the EER demand fits (checkActivation), and returns it.
func (c *CPlane) activateSegR(id reservation.ID) (active reservation.Version, err error) {
	err = c.withSegR(id, func(_ *cplaneShard, r *segRec) error {
		if r.pending == nil {
			return ErrNoPending
		}
		r.active, r.pending = *r.pending, nil
		active = r.active
		return nil
	})
	return active, err
}

// initiated gives SegR id, set up from this AS, its segment and tokens, and
// returns a copy of its record.
func (c *CPlane) initiated(id reservation.ID, seg *segment.Segment, tokens [][packet.HVFLen]byte) (segr *reservation.SegR, err error) {
	err = c.withSegR(id, func(_ *cplaneShard, r *segRec) error {
		r.init = &segInit{seg: seg, tokens: tokens}
		segr = r.snapshot(id)
		return nil
	})
	return segr, err
}

// origin returns what this AS, SegR id's initiator, reads to renew or
// activate it: its segment, its next version and its active one.
func (c *CPlane) origin(id reservation.ID) (seg *segment.Segment, next uint16, active reservation.Version, err error) {
	err = c.withSegR(id, func(_ *cplaneShard, r *segRec) error {
		if r.init != nil {
			seg, active, next = r.init.seg, r.active, r.active.Ver+1
			if r.pending != nil && r.pending.Ver >= next {
				next = r.pending.Ver + 1
			}
		}
		return nil
	})
	switch {
	case err != nil:
		err = fmt.Errorf("%w: %s", err, id)
	case seg == nil:
		err = fmt.Errorf("cserv: SegR %s was not initiated here", id)
	}
	return seg, next, active, err
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

// tick expires EERs whose versions have lapsed, drops the held pieces that
// have lapsed, advances every ledger, switches a SegR whose active version has
// expired to a live pending one (the initiator failed to activate in time),
// and drops, in ID order, the SegRs whose versions have both expired. It
// returns the number of EERs expired and the IDs of the SegRs dropped. Each
// shard's records are walked in their table's dense order, from the last down,
// deleting in place; the order is deterministic, and no outcome depends on it
// (a discharge touches only its own ledgers, and the transfer split only ever
// subtracts on expiry).
func (c *CPlane) tick() (expired int, dropped []reservation.ID) {
	now := c.clock()
	var pairs []pairRef
	for _, sh := range c.shards {
		sh.mu.Lock()
		for i := sh.eers.Len() - 1; i >= 0; i-- {
			id, e := sh.eers.At(i)
			lapsed := e.expT <= now
			if !lapsed && !(e.held() && sh.held.Get(id).expT <= now) {
				continue
			}
			if e.cover&pairBit != 0 {
				pairs = append(pairs, sh.pairRefOf(id, e.cover))
				continue
			}
			p := c.pathOf(sh, e.cover, now)
			if !lapsed {
				p.unhold(id, e)
				continue
			}
			p.release(id, e)
			sh.eers.Delete(id)
			expired++
		}
		// Each SegR advances and switches alone, and the drops are sorted, so
		// the order does not matter.
		//colibri:allow(determinism)
		for id, r := range sh.segs {
			r.led.Advance(now)
			switch {
			case r.lapsed(now):
				dropped = append(dropped, id)
			case r.active.Expired(now):
				r.active, r.pending = *r.pending, nil
			}
		}
		sh.mu.Unlock()
	}
	for _, r := range pairs {
		if c.removePair(r, func(e *cpEER) bool { return e.expT <= now }, now) {
			expired++
		}
	}
	c.eerCount.Add(-int64(expired))
	sort.Slice(dropped, func(i, j int) bool { return dropped[i].Less(dropped[j]) })
	kept := dropped[:0]
	for _, id := range dropped {
		if c.dropIf(id, func(r *segRec) bool { return r.lapsed(now) }) {
			kept = append(kept, id)
		}
	}
	return expired, kept
}

// pairRef names a transfer-AS record found under one shard lock, for removal
// under both (removePair): the EER, its pair handle and its two SegRs'
// handles.
type pairRef struct {
	eer       reservation.ID
	cover     segH
	seg, seg2 segH
}

// pairRefOf names EER eer's record in shard sh, which the caller has locked,
// whose cover is the pair handle cover.
func (sh *cplaneShard) pairRefOf(eer reservation.ID, cover segH) pairRef {
	h, h2 := sh.segsOf(cover)
	return pairRef{eer: eer, cover: cover, seg: h, seg2: h2}
}

// removePair removes a transfer-AS record, if it still exists and cond holds
// for it, under the locks of both covering SegRs' shards — so that both its
// pieces leave both ledgers with the record, and neither is left carrying a
// charge no record answers for, and at an up→core pair its split charge
// leaves the pair's books. Tick and DropSegR find such records under one
// shard lock at a time and cannot reach the second ledger from there. A record
// that stays loses its held piece if that has lapsed by heldLapse (Tick's now;
// 0 keeps it).
func (c *CPlane) removePair(r pairRef, cond func(*cpEER) bool, heldLapse uint32) (ok bool) {
	c.withHandles(r, func(p eerPath) {
		// A record that no longer names the pair was rewritten since it was
		// found, and a pair handle that names another pair was freed and taken
		// again; whoever finds the record next decides for it.
		rec, b := p.lookup(r.eer), &p.prim.pairs[r.cover&^pairBit]
		switch {
		case rec == nil || rec.cover != r.cover || b.h != r.seg || b.h2 != r.seg2:
		case cond(rec):
			ok = true
			if p.splits() {
				splitBooks{pair: b, core: p.rec[1]}.release(uint64(rec.bw), uint64(rec.bw))
			}
			p.release(r.eer, rec)
			p.prim.eers.Delete(r.eer)
		case rec.held() && p.prim.held.Get(r.eer).expT <= heldLapse:
			p.unhold(r.eer, rec)
		}
	})
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
