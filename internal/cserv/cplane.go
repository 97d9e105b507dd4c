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
//   - a keyless restree demand profile per SegR tracking admitted EER
//     bandwidth over discretized time (see internal/restree and DESIGN.md
//     §7), and
//   - the EER records admitted against those SegRs, each of which is the
//     only handle on its own charge: what was charged is withdrawn by
//     handing the record's window and bandwidth back to the profile.
//
// A reservation never spans shards: an EER lives in the shard of its SegR,
// so every operation takes exactly one shard lock and shards never deadlock
// against each other. RenewBatch processes a whole renewal wave shard-major
// on the caller's goroutine — one lock acquisition per shard per batch — and
// is allocation-free in steady state. Counts reads atomics and takes no lock.
package cserv

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"colibri/internal/admission"
	"colibri/internal/reservation"
	"colibri/internal/restree"
	"colibri/internal/topology"
)

// CPlane errors. All are sentinels: the batch paths must not allocate.
var (
	ErrUnknownSegR = errors.New("cplane: unknown segment reservation")
	ErrSegRInUse   = errors.New("cplane: segment reservation has live EERs")
	ErrUnknownEER  = errors.New("cplane: unknown end-to-end reservation")
	// ErrInsufficient rejects an EER setup or renewal whose demand exceeds
	// the SegR's free bandwidth over the requested window (setups are
	// full-or-nothing; renewals fall back to the previous version).
	ErrInsufficient = errors.New("cplane: insufficient bandwidth on segment reservation")
	// ErrTransferEER marks an EER charged against two SegRs (a transfer-AS
	// record, §4.7): its renewal must go through RenewEERPath, which locks
	// both owning shards, not through the single-shard batch path.
	ErrTransferEER = errors.New("cplane: transfer-AS EER requires path renewal")
)

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
	clock  func() uint32

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
	// covering SegRs) that Tick expires, after the shard lock is released.
	// The Service uses it to return the record's charge to the §4.7
	// transfer-split accounting, which otherwise never learns that an EER
	// lapsed without being renewed.
	onExpire func(seg, seg2 reservation.ID, bwKbps uint64)

	// buckets is RenewBatch's per-shard index scratch, under batchMu.
	batchMu sync.Mutex
	buckets [][]int32
}

// cplaneShard is one shard's admission state, owned by the CPlane front end:
// reached only under sh.mu from CPlane's methods, never aliased out
// (colibri-vet enforces this).
//
//colibri:shardowned
type cplaneShard struct {
	mu  sync.Mutex
	adm *admission.State
	// segBw caches each SegR's current grant (the admitter's GrantOf would
	// need its internal lock; the cache is updated under sh.mu at its write
	// sites: AddSegR, RenewSegRWithUndo, AdjustSegR).
	segBw map[reservation.ID]uint64
	// ledgers holds one EER demand profile per SegR.
	ledgers map[reservation.ID]*restree.Profile
	eers    map[reservation.ID]cpEER
}

// cpEER is the shard-local record of one admitted EER version. seg2 is the
// second charged SegR at a transfer AS (§4.7: an EER entering on an up
// segment and leaving on a core segment consumes bandwidth on both); it is
// the zero ID everywhere else. ver is the protocol version of the admitted
// record, used by the live request path for idempotent dedup of retries.
//
// The record is the handle on its charge: bw over [startT, expT) is what the
// covering ledgers were charged with, and handing exactly that back is what
// withdraws it (eerPath.discharge). Every write of bw, startT or expT
// therefore goes with a charge of the same values.
type cpEER struct {
	seg  reservation.ID
	seg2 reservation.ID
	bw   uint64
	// startT is the second the charge starts at: the admission instant, or
	// the start of a slice bought ahead (SetupEERAt).
	startT uint32
	expT   uint32
	// lastRenew is the second of the last renewal the per-EER throttle let
	// through (eerPath.allowRenew); 0 before the first.
	lastRenew uint32
	ver       uint16
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
		clock:        cfg.Clock,
		epochSec:     cfg.EpochSeconds,
		ledgerEpochs: cfg.LedgerEpochs,
		buckets:      make([][]int32, cfg.Shards),
	}
	for i := range c.shards {
		c.shards[i] = &cplaneShard{
			adm:     admission.NewState(shardedAS(cfg.AS, cfg.Shards, i), cfg.Split),
			segBw:   make(map[reservation.ID]uint64),
			ledgers: make(map[reservation.ID]*restree.Profile),
			eers:    make(map[reservation.ID]cpEER),
		}
	}
	return c, nil
}

// OnExpire registers the expiry callback invoked by Tick for each expired
// transfer-AS record (see the field doc). Set it before the first Tick;
// it must not call back into the CPlane.
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
	sh := c.shardFor(req.ID)
	sh.mu.Lock()
	_, known := sh.ledgers[req.ID]
	grant, err := sh.adm.AdmitSegR(req)
	if err != nil {
		sh.mu.Unlock()
		c.rejects.Add(1)
		return 0, err
	}
	sh.segBw[req.ID] = grant
	if !known {
		// Re-admitting a known ID (an idempotent replay or a version bump)
		// must not wipe the ledger of EERs already charged against it.
		sh.ledgers[req.ID] = restree.NewProfile(c.ledgerEpochs, c.epochSec)
	}
	sh.mu.Unlock()
	if !known {
		c.segCount.Add(1)
	}
	c.admits.Add(1)
	return grant, nil
}

// TeardownSegR releases a SegR. It fails with ErrSegRInUse while EERs are
// still admitted against it (tear those down or let them expire first).
func (c *CPlane) TeardownSegR(id reservation.ID) error {
	sh := c.shardFor(id)
	now := c.clock()
	sh.mu.Lock()
	led, ok := sh.ledgers[id]
	if !ok {
		sh.mu.Unlock()
		return ErrUnknownSegR
	}
	led.Advance(now)
	if led.Len() > 0 {
		sh.mu.Unlock()
		return ErrSegRInUse
	}
	sh.adm.Release(id)
	delete(sh.segBw, id)
	delete(sh.ledgers, id)
	sh.mu.Unlock()
	c.segCount.Add(-1)
	return nil
}

// SetupEER admits an EER of bwKbps over the given SegR until expT.
// Admission is full-or-nothing: the demand must fit under the SegR's grant
// at every epoch of [now, expT), checked in O(log epochs) on the ledger.
func (c *CPlane) SetupEER(eer, seg reservation.ID, bwKbps uint64, expT uint32) error {
	return c.SetupEERAt(eer, seg, bwKbps, 0, expT)
}

// SetupEERAt is SetupEER with an explicit charge window [startT, expT) — the
// windowed variant used by time-sliced (Hummingbird-style) reservation
// policies whose grants are decoupled from the setup instant. startT == 0
// anchors at now; a startT in the past is clamped to now (the elapsed part of
// the window cannot be used, so charging it would only inflate demand). The
// window may start in the future: demand is charged only over [startT, expT),
// so back-to-back slices concatenate seamlessly without double-charging the
// handover epoch, and a slice bought ahead of time holds its bandwidth
// against competing setups from the moment it is admitted.
func (c *CPlane) SetupEERAt(eer, seg reservation.ID, bwKbps uint64, startT, expT uint32) error {
	sh := c.shardFor(seg)
	now := c.clock()
	sh.mu.Lock()
	p := c.path1(sh, seg, now)
	err := p.admit(eer, bwKbps, max(startT, now), expT, 0, 0)
	sh.mu.Unlock()
	c.tallySetup(err)
	return err
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

// TeardownEER removes an EER (seg names its segment reservation, which
// determines the shard). Unknown EERs are a no-op, mirroring Release.
func (c *CPlane) TeardownEER(eer, seg reservation.ID) {
	c.TeardownEERPath(eer, []reservation.ID{seg})
}

// EERRenewal is one entry of a renewal batch. Ver is the protocol version
// the renewed record will carry (callers that do not track versions may
// leave it 0).
type EERRenewal struct {
	EER, Seg reservation.ID
	BwKbps   uint64
	ExpT     uint32
	Ver      uint16
}

// RenewResult reports one renewal's outcome. Err is a sentinel
// (ErrUnknownEER, ErrInsufficient, or a restree window error).
type RenewResult struct {
	Granted uint64
	Err     error
}

// RenewEER renews a single EER; see RenewBatch for the semantics. It takes
// only the owning shard's lock.
func (c *CPlane) RenewEER(eer, seg reservation.ID, bwKbps uint64, expT uint32) (uint64, error) {
	sh := c.shardFor(seg)
	now := c.clock()
	sh.mu.Lock()
	p := c.path1(sh, seg, now)
	g, err, gone := p.renewItem(&EERRenewal{EER: eer, Seg: seg, BwKbps: bwKbps, ExpT: expT})
	sh.mu.Unlock()
	c.tallyRenew(err, gone)
	return g, err
}

// tallyRenew counts one renewal outcome (RenewBatch tallies per bucket instead).
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

// RenewBatch processes a renewal wave shard-major: items are bucketed by
// owning shard in one pass, then each non-empty bucket is processed under a
// single acquisition of its shard lock — the batched analogue of §4.2's
// per-request renewals. results[i] receives the outcome of items[i]; the two
// slices must have equal length. A renewal is granted min(requested, free)
// bandwidth over [now, ExpT); a zero grant restores the previous version (the
// flow falls back to it) and reports ErrInsufficient. The method is
// allocation-free in steady state.
//
//colibri:nomalloc
func (c *CPlane) RenewBatch(items []EERRenewal, results []RenewResult) {
	if len(items) != len(results) {
		batchLenMismatch()
	}
	c.batchMu.Lock()
	now := c.clock()
	for i := range c.buckets {
		c.buckets[i] = c.buckets[i][:0]
	}
	for i := range items {
		b := c.shardIndex(items[i].Seg)
		c.buckets[b] = append(c.buckets[b], int32(i))
	}
	var renews, rejects, stale uint64
	var expired int64
	for si, bucket := range c.buckets {
		if len(bucket) == 0 {
			continue
		}
		sh := c.shards[si]
		sh.mu.Lock()
		for _, i := range bucket {
			it := &items[i]
			p := c.path1(sh, it.Seg, now)
			g, err, gone := p.renewItem(it)
			results[i] = RenewResult{Granted: g, Err: err}
			switch {
			case err == nil:
				renews++
			case err == ErrUnknownEER:
				stale++
			default:
				rejects++
			}
			if gone {
				expired++
			}
		}
		sh.mu.Unlock()
	}
	c.batchMu.Unlock()
	c.renews.Add(renews)
	c.rejects.Add(rejects)
	c.stale.Add(stale)
	c.eerCount.Add(-expired)
}

// batchLenMismatch stays out of line so the panic value is not attributed
// to RenewBatch's nomalloc-annotated range by escape analysis.
//
//go:noinline
func batchLenMismatch() {
	panic("cserv: RenewBatch items/results length mismatch")
}

// renewItem is the per-item core of RenewBatch: renew under the item's one
// covering SegR. gone reports that the EER record was dropped (its old
// version had already expired and the renewal was refused).
//
//colibri:nomalloc
func (p *eerPath) renewItem(it *EERRenewal) (grant uint64, err error, gone bool) {
	e, ok := p.lookup(it.EER)
	if !ok {
		return 0, ErrUnknownEER, false
	}
	return p.renewRec(it.EER, e, it.BwKbps, it.ExpT, it.Ver)
}

// Tick expires EERs whose versions have lapsed and advances every ledger.
// It returns the number of EERs removed. Iteration is over sorted IDs so
// runs are deterministic (colibri-vet: determinism).
func (c *CPlane) Tick() int {
	now := c.clock()
	total := 0
	var pairs []pairRef
	for _, sh := range c.shards {
		sh.mu.Lock()
		var ids []reservation.ID
		for id, e := range sh.eers {
			if e.expT <= now {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
		for _, id := range ids {
			e := sh.eers[id]
			if e.seg2 != (reservation.ID{}) {
				pairs = append(pairs, pairRef{eer: id, seg: e.seg, seg2: e.seg2})
				continue
			}
			p := c.path1(sh, e.seg, now)
			p.discharge(e)
			delete(sh.eers, id)
			total++
		}
		var segs []reservation.ID
		for id := range sh.ledgers {
			segs = append(segs, id)
		}
		sort.Slice(segs, func(i, j int) bool { return segs[i].Less(segs[j]) })
		for _, id := range segs {
			sh.ledgers[id].Advance(now)
		}
		sh.mu.Unlock()
	}
	for _, r := range pairs {
		e, ok := c.removePair(r, func(e cpEER) bool { return e.expT <= now })
		if !ok {
			continue
		}
		total++
		if c.onExpire != nil {
			c.onExpire(e.seg, e.seg2, e.bw)
		}
	}
	c.eerCount.Add(-int64(total))
	return total
}

// pairRef names a transfer-AS record found under one shard lock, for removal
// under both (removePair).
type pairRef struct{ eer, seg, seg2 reservation.ID }

// removePair removes a transfer-AS record, if it still exists and cond holds
// for it, under the locks of both covering SegRs' shards — so that its charge
// leaves both ledgers with the record, and neither is left carrying a charge
// no record answers for. Tick and DropSegR find such records under one shard
// lock at a time and cannot reach the second ledger from there.
func (c *CPlane) removePair(r pairRef, cond func(cpEER) bool) (e cpEER, ok bool) {
	c.withPath([]reservation.ID{r.seg, r.seg2}, func(p eerPath) {
		if e, ok = p.lookup(r.eer); ok && cond(e) {
			p.discharge(e)
			delete(p.prim.eers, r.eer)
		} else {
			ok = false
		}
	})
	return e, ok
}

// SegRAudit is one SegR's conservation snapshot: the bandwidth granted to
// the SegR at this AS and the peak EER demand its ledger carries over the
// audited window. PeakKbps > GrantKbps at any time is an over-admission —
// the invariant the transfer-split leak of the 10⁶-EER storm violated.
type SegRAudit struct {
	Seg reservation.ID
	// GrantKbps is the SegR's current grant (the EER admission ceiling).
	GrantKbps uint64
	// PeakKbps is the maximum aggregate EER demand charged on the SegR's
	// ledger over any epoch intersecting the audited window.
	PeakKbps uint64
	// LiveEERs is the number of charges on the ledger that have not lapsed.
	LiveEERs int
}

// AuditLedgers snapshots every SegR's grant and peak admitted EER demand
// over [fromT, toT), in ID order. Each shard is advanced to now first, so
// lapsed charges do not count against the window. The result is
// deterministic for a given engine state; conservation tests assert
// PeakKbps <= GrantKbps on every row.
func (c *CPlane) AuditLedgers(fromT, toT uint32) []SegRAudit {
	now := c.clock()
	var rows []SegRAudit
	for _, sh := range c.shards {
		sh.mu.Lock()
		var segs []reservation.ID
		for id := range sh.ledgers {
			segs = append(segs, id)
		}
		sort.Slice(segs, func(i, j int) bool { return segs[i].Less(segs[j]) })
		for _, id := range segs {
			led := sh.ledgers[id]
			led.Advance(now)
			rows = append(rows, SegRAudit{
				Seg:       id,
				GrantKbps: sh.segBw[id],
				PeakKbps:  uint64(led.MaxDemand(fromT, toT)),
				LiveEERs:  led.Len(),
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Seg.Less(rows[j].Seg) })
	return rows
}

// AllocatedKbps sums the shards' granted SegR bandwidth at an egress
// interface. Because shardedAS splits every physical capacity exactly across
// shards, the sum never exceeds the egress's reservable share — the
// aggregate half of the conservation invariant.
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
