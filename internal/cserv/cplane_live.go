// cplane_live.go — the CPlane surface consumed by the live request path
// (service.go / segr.go / eer.go / batchrenew.go).
//
// cplane.go holds the engine's state and its SegR lifecycle, the SegR legs
// included; the live path additionally needs
//
//   - EER operations over one OR two covering SegRs: at a transfer AS an
//     EER entering on an up-segment and leaving on a core-segment consumes
//     bandwidth on both (§4.7), and the two SegRs may live in different
//     shards, and
//   - version-aware lookup for the handlers' idempotent dedup of retried
//     requests.
//
// Lock discipline: every function here acquires the shards it needs in
// ascending shard-index order and holds them to completion (deferred
// unlock). Single-lock operations elsewhere never acquire a second shard
// lock while holding one, so ordered acquisition keeps the engine
// deadlock-free; DropSegR and Tick take theirs one at a time, and in order
// for the transfer-AS records they remove.
package cserv

import (
	"colibri/internal/reservation"
	"colibri/internal/restree"
)

// SegDemandMax returns the maximum outstanding EER demand on the SegR from
// now to the end of any admitted EER's lifetime, for the activation
// over-allocation check. ok is false for unknown SegRs.
func (c *CPlane) SegDemandMax(seg reservation.ID) (demand uint64, ok bool) {
	now := c.clock()
	ok = c.withSegR(seg, func(_ *cplaneShard, r *segRec) error {
		demand = r.demandMax(now)
		return nil
	}) == nil
	return demand, ok
}

// demandMax returns SegR record r's maximum EER demand from now on; its shard
// is locked.
func (r *segRec) demandMax(now uint32) uint64 {
	r.led.Advance(now)
	// EER charges never extend past one lifetime from admission, so two
	// lifetimes from now bounds every live window without approaching the
	// ledger horizon.
	return uint64(max(r.led.MaxDemand(now, now+2*reservation.EERLifetimeSeconds), 0))
}

// pathShards returns the shard indices to lock for a covering-SegR set in
// ascending order; b is -1 when one lock suffices (single seg, or both segs
// hash to the same shard).
func (c *CPlane) pathShards(segs []reservation.ID) (a, b int) {
	a = c.shardIndex(segs[0])
	b = -1
	if len(segs) > 1 {
		if i := c.shardIndex(segs[1]); i != a {
			b = i
		}
	}
	if b >= 0 && b < a {
		a, b = b, a
	}
	return a, b
}

// normPath collapses a degenerate two-entry covering set (same SegR twice)
// to a single entry so the two-seg paths can assume distinct segments.
func normPath(segs []reservation.ID) []reservation.ID {
	if len(segs) == 2 && segs[0] == segs[1] {
		return segs[:1]
	}
	return segs
}

// eerPath is one hop's covering-SegR set with its shard locks held (see
// withPath): the record lookups, availability probes, renewals and
// re-admissions of a whole renewal wave run against it without locking again.
// All items of a wave share the chain, hence the covering set, hence the
// shard pair — which is what lets a wave lock once and still settle its items
// strictly in order. Tick and purge run the same methods over the one-segment
// path of a record's SegR whose shard they have locked (pathOf).
type eerPath struct {
	c *CPlane
	// h[:nseg] is the normalized set's handles: one entry, or two distinct
	// ones (the second is 0 when there is one); unknownSegR stands for a SegR
	// this AS does not hold. cover is the handle a record over exactly these
	// SegRs carries: h[0] alone, or their pair's, unknownSegR while no record
	// has named the pair (fill interns it).
	h     [2]segH
	cover segH
	nseg  int
	now   uint32
	prim  *cplaneShard // shard of the first SegR, which owns the EER records
	// rec is each covering SegR's record (nil when unknown), resolved once
	// while the locks are held.
	rec [2]*segRec
}

// withPath runs fn with the shard locks of the covering-SegR set held, taken
// in ascending shard order like every other function of this file. fn must
// not call any other CPlane method (the shard locks are not reentrant). The
// path is passed by value so that it stays on the stack.
func (c *CPlane) withPath(segs []reservation.ID, fn func(p eerPath)) {
	segs = normPath(segs)
	a, b := c.pathShards(segs)
	c.shards[a].mu.Lock()
	defer c.shards[a].mu.Unlock()
	if b >= 0 {
		c.shards[b].mu.Lock()
		defer c.shards[b].mu.Unlock()
	}
	p := eerPath{c: c, nseg: 1, now: c.clock(), prim: c.shardFor(segs[0])}
	p.h[0], p.rec[0] = p.prim.resolve(segs[0])
	p.cover = p.h[0]
	if len(segs) == 2 {
		p.nseg = 2
		p.h[1], p.rec[1] = c.shardFor(segs[1]).resolve(segs[1])
		p.cover = p.prim.pairOf(p.rec[0], p.h[1])
	}
	fn(p)
}

// withHandles is withPath over the two distinct SegRs of the transfer-AS
// record r names, by handle, which must name SegRs (their shards are locked
// here, from the shard index each handle carries, in ascending order).
func (c *CPlane) withHandles(r pairRef, fn func(p eerPath)) {
	h, h2 := r.seg, r.seg2
	a, b := c.shardOf(h), c.shardOf(h2)
	if a > b {
		a, b = b, a
	}
	c.shards[a].mu.Lock()
	defer c.shards[a].mu.Unlock()
	if b != a {
		c.shards[b].mu.Lock()
		defer c.shards[b].mu.Unlock()
	}
	p := c.pathOf(c.shards[c.shardOf(h)], h, c.clock())
	p.nseg, p.h[1], p.rec[1], p.cover = 2, h2, c.slot(h2).rec, r.cover
	fn(p)
}

// resolve returns the handle and record of SegR seg, or unknownSegR and nil
// when sh, which the caller has locked, holds no such SegR: one probe.
//
//colibri:nomalloc
func (sh *cplaneShard) resolve(seg reservation.ID) (segH, *segRec) {
	if r := sh.segs[seg]; r != nil {
		return r.h, r
	}
	return unknownSegR, nil
}

// pathOf is the path of the single SegR handle h names, whose shard sh the
// caller has locked: one indexed load.
//
//colibri:nomalloc
func (c *CPlane) pathOf(sh *cplaneShard, h segH, now uint32) eerPath {
	p := eerPath{c: c, nseg: 1, now: now, prim: sh, cover: h}
	p.h[0], p.rec[0] = h, c.slot(h).rec
	return p
}

// lookup returns the EER's record under the primary covering SegR — what
// LookupEER returns, for the handlers' dedup and previous-version capture — or
// nil. The record is the table's own: a renewal writes its new version through
// it. It stays valid until the next insertion or deletion in the shard.
//
//colibri:nomalloc
func (p *eerPath) lookup(eer reservation.ID) *cpEER {
	e := p.prim.eers.Get(eer)
	if e == nil {
		return nil
	}
	if h, _ := p.prim.segsOf(e.cover); h != p.h[0] {
		return nil
	}
	return e
}

// covers reports whether record e was admitted over exactly this path's SegRs.
// Only such a record may be rewritten or removed through the path: one that
// names a SegR the path lacks keeps a charge there that the path cannot reach,
// so rewriting or deleting it would strand that charge.
//
//colibri:nomalloc
func (p *eerPath) covers(e *cpEER) bool { return e.cover == p.cover }

// readAhead looks up the record of every live item of a wave before the first
// item's leg runs. The lookups do not depend on each other, so the CPU
// overlaps their cache misses, where the legs — each settled before the next
// starts — would pay them one after another. It is not authoritative: an
// earlier item of the wave may renew, move or delete the record a later one
// names, so the leg looks every record up again, then from cache. It returns
// the sum of the versions it read, which the caller keeps so that the loads are
// not dead code.
//
//colibri:nomalloc
func (p *eerPath) readAhead(w *waveView, tail itemTail) (sum uint16) {
	for i := range w.n {
		if tail.status(i) != Granted {
			continue
		}
		if e := p.prim.eers.Get(w.itemID(i)); e != nil {
			sum += e.ver
		}
	}
	return sum
}

// allowRenew is the per-EER renewal limit of §4.2 (one per second) for a
// renewal that found its record e: the second of the last one let through is in
// the record (cpEER.renewedAt), so the throttle costs no lookup of its own —
// and a record that is lost takes its mark with it. It stamps e in place;
// renewRec keeps the stamp with whichever version survives. A renewal that
// finds no record is a re-admission: it is admitted as a setup and marks the
// record it creates (setup), so a second one within the second finds the mark.
func (p *eerPath) allowRenew(e *cpEER) bool {
	if e.renewedAt(p.now) {
		return false
	}
	e.stampAt(p.now)
	return true
}

// avail is SegAvail for covering SegR k over [now, toT).
func (p *eerPath) avail(k int, toT uint32) uint64 {
	r := p.rec[k]
	if r == nil {
		return 0
	}
	r.led.Advance(p.now)
	return headroom(r.grant, r.led.MaxDemand(p.now, toT))
}

// charge advances every covering ledger to now and adds bwKbps over
// [now, expT) to each, or to none. Every charge starts so, which is what lets
// a record withdraw its own without its start (discharge).
//
//colibri:nomalloc
func (p *eerPath) charge(expT uint32, bwKbps uint64) error {
	for k, r := range p.rec[:p.nseg] {
		err := ErrUnknownSegR
		if r != nil {
			r.led.Advance(p.now)
			err = r.led.Charge(p.now, expT, int64(bwKbps))
		}
		if err != nil {
			if k == 1 {
				p.rec[0].led.DischargeFromFloor(expT, int64(bwKbps))
			}
			return err
		}
	}
	return nil
}

// discharge withdraws the charge of record e, which the path covers, from
// every covering ledger, whose floor has reached its start (charge).
//
//colibri:nomalloc
func (p *eerPath) discharge(e *cpEER) {
	for _, r := range p.rec[:p.nseg] {
		r.led.DischargeFromFloor(e.expT, int64(e.bw))
	}
}

// EERVersion is a version of an EER as the books see it: its bandwidth until
// its expiry. The zero EERVersion is none.
type EERVersion struct {
	BwKbps uint64
	ExpT   uint32
}

// heldOf returns the older version record e keeps held — the record's
// bandwidth plus its held piece's charge, until the piece's end — or none.
//
//colibri:nomalloc
func (p *eerPath) heldOf(eer reservation.ID, e *cpEER) EERVersion {
	if !e.held() {
		return EERVersion{}
	}
	h := p.prim.held.Get(eer)
	return EERVersion{BwKbps: uint64(e.bw) + h.charge, ExpT: h.expT}
}

// older is what a record renewed or clamped to bwKbps keeps held of the
// versions it replaces (§4.2): of prev, the version the record carried, and
// held, what it kept beside it, those still valid and above bwKbps — merged,
// as the larger bandwidth until the later expiry. A second downward renewal
// within a lifetime is charged conservatively so, with one piece, not two.
//
//colibri:nomalloc
func (p *eerPath) older(bwKbps uint64, prev, held EERVersion) (v EERVersion) {
	for _, o := range [2]EERVersion{prev, held} {
		if o.ExpT > p.now && o.BwKbps > bwKbps {
			v = EERVersion{BwKbps: max(v.BwKbps, o.BwKbps), ExpT: max(v.ExpT, o.ExpT)}
		}
	}
	return v
}

// hold gives record e, which has no held piece, one for v (from older): the
// excess of v over e's own bandwidth, charged from now until v expires or e
// does, whichever comes first — a held piece never outlives its record. A v no
// larger than e, or lapsed, needs none.
func (p *eerPath) hold(eer reservation.ID, e *cpEER, v EERVersion) {
	expT, bw := min(v.ExpT, e.expT), uint64(e.bw)
	if v.BwKbps <= bw || expT <= p.now || p.charge(expT, v.BwKbps-bw) != nil {
		return
	}
	h, _ := p.prim.held.Put(eer)
	*h = heldPiece{charge: v.BwKbps - bw, expT: expT}
	e.flags |= flagHeld
}

// unhold withdraws record e's held piece, if it has one, and forgets it.
//
//colibri:nomalloc
func (p *eerPath) unhold(eer reservation.ID, e *cpEER) {
	if !e.held() {
		return
	}
	h := p.prim.held.Get(eer)
	for _, r := range p.rec[:p.nseg] {
		r.led.DischargeFromFloor(h.expT, int64(h.charge))
	}
	p.prim.held.Delete(eer)
	e.flags &^= flagHeld
}

// release withdraws both of record e's charges, before the record goes.
//
//colibri:nomalloc
func (p *eerPath) release(eer reservation.ID, e *cpEER) {
	p.discharge(e)
	p.unhold(eer, e)
}

// ready advances every covering ledger to now; a SegR this AS does not hold
// is ErrUnknownSegR.
//
//colibri:nomalloc
func (p *eerPath) ready() error {
	for _, r := range p.rec[:p.nseg] {
		if r == nil {
			return ErrUnknownSegR
		}
		r.led.Advance(p.now)
	}
	return nil
}

// free is the bandwidth every covering SegR still has over [startT, expT),
// capped at want.
//
//colibri:nomalloc
func (p *eerPath) free(want uint64, startT, expT uint32) uint64 {
	for _, r := range p.rec[:p.nseg] {
		want = min(want, headroom(r.grant, r.led.MaxDemand(startT, expT)))
	}
	return want
}

// admit charges a new EER of bwKbps over [now, expT) against the covering
// SegRs — one for most hops, two at a transfer AS (§4.7), in which case the
// demand must fit under BOTH SegRs' grants and is charged on both ledgers.
// Admission is full-or-nothing. The record carries ver for idempotent dedup,
// and the throttle's stamp of this second when stamp is set; the first
// covering SegR is the primary one, whose shard owns the record.
//
// The record table is probed once: the insertion finds a record the EER
// already has (under any SegR: ErrExists) or adds a fresh one, which a ledger
// refusal deletes again. The fresh record is the dense array's last, and
// deleting it restores every other record in place, so a refusal leaves the
// records, the ledgers and the tallies as they were.
//
//colibri:nomalloc
func (p *eerPath) admit(eer reservation.ID, bwKbps uint64, expT uint32, ver uint16, stamp bool) error {
	if bwKbps > MaxEERKbps {
		return ErrBandwidthRange
	}
	if err := p.ready(); err != nil {
		return err
	}
	e, added := p.prim.eers.Put(eer)
	if !added {
		return restree.ErrExists
	}
	err := ErrInsufficient
	if p.free(bwKbps, p.now, expT) >= bwKbps {
		err = p.charge(expT, bwKbps)
	}
	if err != nil {
		p.prim.eers.Delete(eer)
		return err
	}
	p.fill(e, bwKbps, expT, ver)
	if stamp {
		e.stampAt(p.now)
	}
	return nil
}

// fill writes a fresh version into record e, which holds no held piece,
// naming the path's SegRs, whose ledgers the caller has just charged with it
// (bwKbps ≤ MaxEERKbps): by their pair's handle at a transfer AS, which the
// first record over the pair interns. The throttle's stamp stays as it was.
// Each SegR learns that a record names it.
//
//colibri:nomalloc
func (p *eerPath) fill(e *cpEER, bwKbps uint64, expT uint32, ver uint16) {
	if p.cover == unknownSegR {
		p.cover = p.prim.intern(p.rec[0], p.h[1])
	}
	e.cover, e.bw, e.expT, e.ver = p.cover, uint32(bwKbps), expT, ver
	for _, r := range p.rec[:p.nseg] {
		r.named = true
	}
}

// setup is admit, counted. renewal marks the re-admission of a
// renewal whose record this AS no longer holds: the new record carries the
// throttle's stamp of this second.
func (p *eerPath) setup(eer reservation.ID, bwKbps uint64, expT uint32, ver uint16, renewal bool) error {
	err := p.admit(eer, bwKbps, expT, ver, renewal)
	p.c.tallySetup(err)
	return err
}

// renewRec replaces the version in record e (just returned by lookup) with one
// of min(bwKbps, free) over [now, expT), written in place, where free is
// evaluated against EVERY covering SegR at this AS once e's own charges are
// withdrawn: a renewal replaces the version, it does not stack on it. But the
// versions it replaces stay valid at the routers until they expire (§4.2), so
// a renewal granted less than one of them keeps the difference charged until
// then, as the record's held piece (hold). A zero grant or an invalid window
// re-charges the previous version when it is still live (§4.2 fallback),
// leaving the record as it was, and reports the error; gone reports that it
// was not and the record went.
//
//colibri:nomalloc
func (p *eerPath) renewRec(eer reservation.ID, e *cpEER, bwKbps uint64, expT uint32, ver uint16) (grant uint64, err error, gone bool) {
	switch {
	case bwKbps > MaxEERKbps:
		err = ErrBandwidthRange
	case p.covers(e):
		err = p.ready()
	case p.nseg == 1:
		// Transfer-AS record: its second charge lives in another ledger, so the
		// single-segment path must not touch it.
		err = ErrTransferEER
	default:
		err = ErrUnknownEER
	}
	if err != nil {
		return 0, err, false
	}
	prev, held := EERVersion{BwKbps: uint64(e.bw), ExpT: e.expT}, p.heldOf(eer, e)
	p.release(eer, e)
	err = ErrInsufficient
	if grant = p.free(bwKbps, p.now, expT); grant > 0 {
		if err = p.charge(expT, grant); err == nil {
			e.bw, e.expT, e.ver = uint32(grant), expT, ver
			p.hold(eer, e, p.older(grant, prev, held))
			return grant, nil, false
		}
	}
	if e.expT <= p.now || p.charge(e.expT, uint64(e.bw)) != nil {
		p.prim.eers.Delete(eer)
		return 0, err, true
	}
	p.hold(eer, e, held)
	return 0, err, false
}

// renew is renewRec, counted. Callers needing rollback keep the previous
// version's fields and reinstate it with restore.
func (p *eerPath) renew(eer reservation.ID, e *cpEER, bwKbps uint64, expT uint32, ver uint16) (uint64, error) {
	g, err, gone := p.renewRec(eer, e, bwKbps, expT, ver)
	p.c.tallyRenew(err, gone)
	return g, err
}

// SetupEERPath is eerPath.setup under the covering SegRs' shard locks.
func (c *CPlane) SetupEERPath(eer reservation.ID, segs []reservation.ID, bwKbps uint64, expT uint32, ver uint16) (err error) {
	c.withPath(segs, func(p eerPath) { err = p.setup(eer, bwKbps, expT, ver, false) })
	return err
}

// RenewEERPath is eerPath.renew under the covering SegRs' shard locks; an EER
// with no record reports ErrUnknownEER.
func (c *CPlane) RenewEERPath(eer reservation.ID, segs []reservation.ID, bwKbps uint64, expT uint32, ver uint16) (grant uint64, err error) {
	c.withPath(segs, func(p eerPath) {
		e := p.lookup(eer)
		if e == nil {
			c.stale.Add(1)
			err = ErrUnknownEER
			return
		}
		grant, err = p.renew(eer, e, bwKbps, expT, ver)
	})
	return grant, err
}

// recharge replaces the charge of record e (none when e is nil) with bwKbps
// over [now, expT) on every covering ledger, WITHOUT an admission check. It
// reports false — and leaves no charge behind, a partial one must not stand —
// when the window is empty, the bandwidth above MaxEERKbps, or a ledger is
// missing or refuses it.
func (p *eerPath) recharge(e *cpEER, expT uint32, bwKbps uint64) bool {
	if e != nil {
		p.discharge(e)
	}
	return expT > p.now && bwKbps <= MaxEERKbps && p.charge(expT, bwKbps) == nil
}

// restore force-reinstates a previous EER version after a downstream failure
// rolled back a setup or renewal: the current charges are removed and the
// given version is re-charged without an admission check (it is the caller's
// own prior state, which fits by construction once the newer charge is gone),
// with held — what the record kept held beside it (heldOf) — held again. An
// already-expired version (expT <= now) removes the record entirely. The
// renewal throttle's stamp stays with the record. A record admitted over
// another covering set is left alone (covers).
func (p *eerPath) restore(eer reservation.ID, bwKbps uint64, expT uint32, ver uint16, held EERVersion) {
	e := p.prim.eers.Get(eer)
	if e != nil {
		if !p.covers(e) {
			return
		}
		p.unhold(eer, e)
	}
	if !p.recharge(e, expT, bwKbps) {
		if e != nil {
			p.prim.eers.Delete(eer)
			p.c.eerCount.Add(-1)
		}
		return
	}
	if e == nil {
		e, _ = p.prim.eers.Put(eer)
		p.c.eerCount.Add(1)
	}
	p.fill(e, bwKbps, expT, ver)
	p.hold(eer, e, held)
}

// adjust lowers an EER's charge to the backward-pass final grant (the
// response leg shrinking a grant to the path-wide minimum), in place, and
// keeps held what §4.2 keeps of the versions the renewal replaced: prev, the
// version the record carried before it, and held, what it kept beside that
// (zero for a setup). A zero final removes the record. Unknown EERs, and
// records admitted over another covering set (covers), are left alone.
func (p *eerPath) adjust(eer reservation.ID, finalKbps uint64, prev, held EERVersion) {
	e := p.lookup(eer)
	if e == nil || !p.covers(e) {
		return
	}
	p.unhold(eer, e)
	if finalKbps > 0 && p.recharge(e, e.expT, finalKbps) {
		e.bw = uint32(finalKbps)
		p.hold(eer, e, p.older(finalKbps, prev, held))
		return
	}
	if finalKbps == 0 {
		p.discharge(e)
	}
	p.prim.eers.Delete(eer)
	p.c.eerCount.Add(-1)
}

// teardown removes an EER and both its charges on every covering SegR.
// Unknown EERs, and records admitted over another covering set (covers), are
// left alone.
func (p *eerPath) teardown(eer reservation.ID) {
	if e := p.lookup(eer); e != nil && p.covers(e) {
		p.release(eer, e)
		p.prim.eers.Delete(eer)
		p.c.eerCount.Add(-1)
	}
}

// TeardownEERPath is eerPath.teardown under the covering SegRs' shard locks.
func (c *CPlane) TeardownEERPath(eer reservation.ID, segs []reservation.ID) {
	c.withPath(segs, func(p eerPath) { p.teardown(eer) })
}

// purge removes every EER record that names r, a detached SegR, then frees
// the pairs that name it and r's handle for reuse: no record names a handle or
// a pair once it is free, so none can name the SegR or pair that takes it
// next. r is a SegR some record or leg has named (detach frees the handle of
// one none has). Locks are taken strictly one shard at a time but for the
// transfer-AS records and the pairs, which go under their two (removePair,
// dropPair); each shard's records are walked as Tick walks them, deleting in
// place. No pair naming r can form meanwhile: r's ID resolves to nothing.
func (c *CPlane) purge(r *segRec) {
	h := r.h
	now := c.clock()
	var pairs, freed []pairRef
	removed := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		for i := sh.eers.Len() - 1; i >= 0; i-- {
			eid, e := sh.eers.At(i)
			if e.cover&pairBit != 0 {
				if pr := sh.pairRefOf(eid, e.cover); pr.seg == h || pr.seg2 == h {
					pairs = append(pairs, pr)
				}
				continue
			}
			if e.cover != h {
				continue
			}
			p := c.pathOf(sh, h, now)
			p.release(eid, e)
			sh.eers.Delete(eid)
			removed++
		}
		for i, p := range sh.pairs {
			if p.h == h || p.h2 == h {
				freed = append(freed, pairRef{cover: pairBit | segH(i), seg: p.h, seg2: p.h2})
			}
		}
		sh.mu.Unlock()
	}
	for _, pr := range pairs {
		if c.removePair(pr, func(*cpEER) bool { return true }, 0) {
			removed++
		}
	}
	c.eerCount.Add(-int64(removed))
	for _, pr := range freed {
		// The purge of the pair's other SegR may have freed it first.
		c.withHandles(pr, func(p eerPath) {
			if b := p.prim.pairs[pr.cover&^pairBit]; b.h == pr.seg && b.h2 == pr.seg2 {
				p.dropPair(pr.cover)
			}
		})
	}
	r.pairs = nil
	sh := c.shards[c.shardOf(h)]
	sh.mu.Lock()
	c.freeHandle(sh, h)
	sh.mu.Unlock()
}
