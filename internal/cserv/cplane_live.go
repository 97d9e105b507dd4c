// cplane_live.go — the CPlane surface consumed by the live request path
// (service.go / segr.go / eer.go / batchrenew.go).
//
// cplane.go holds the engine's state and its SegR lifecycle; the live path
// additionally needs
//
//   - SegR admission wrappers around admission.State's renewal/adjust/abort
//     surface that keep the per-shard SegR records (grant and EER demand
//     ledger) coherent with the admitter,
//   - EER operations over one OR two covering SegRs: at a transfer AS an
//     EER entering on an up-segment and leaving on a core-segment consumes
//     bandwidth on both (§4.7), and the two SegRs may live in different
//     shards,
//   - version-aware lookup for the handlers' idempotent dedup of retried
//     requests, and
//   - forced SegR drop for the store-cleanup path.
//
// Lock discipline: every function here acquires the shards it needs in
// ascending shard-index order and holds them to completion (deferred
// unlock). Single-lock operations elsewhere never acquire a second shard
// lock while holding one, so ordered acquisition keeps the engine
// deadlock-free; DropSegR and Tick take theirs one at a time, and in order
// for the transfer-AS records they remove.
package cserv

import (
	"colibri/internal/admission"
	"colibri/internal/reservation"
	"colibri/internal/restree"
)

// SegDemandMax returns the maximum outstanding EER demand on the SegR from
// now to the end of any admitted EER's lifetime, for the activation
// over-allocation check. ok is false for unknown SegRs.
func (c *CPlane) SegDemandMax(seg reservation.ID) (uint64, bool) {
	now := c.clock()
	sh := c.shardFor(seg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.segs[seg]
	if !ok {
		return 0, false
	}
	r.led.Advance(now)
	// EER charges never extend past one lifetime from admission, so two
	// lifetimes from now bounds every live window without approaching the
	// ledger horizon.
	m := r.led.MaxDemand(now, now+2*reservation.EERLifetimeSeconds)
	if m < 0 {
		m = 0
	}
	return uint64(m), true
}

// RenewSegRWithUndo re-admits a SegR on its shard with fresh scale factors,
// returning an undo closure restoring the pre-renewal snapshot (admitter
// state and the record's grant). EER charges are untouched in both directions
// — admitted versions keep their allocations until expiry (§4.2).
func (c *CPlane) RenewSegRWithUndo(req admission.Request) (uint64, func(), error) {
	sh := c.shardFor(req.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.segs[req.ID]
	if !ok {
		return 0, nil, ErrUnknownSegR
	}
	grant, undo, err := sh.adm.RenewSegRWithUndo(req)
	if err != nil {
		c.rejects.Add(1)
		return 0, nil, err
	}
	prev := r.grant
	r.grant = grant
	c.renews.Add(1)
	wrapped := func() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if undo != nil {
			undo()
		}
		if r, ok := sh.segs[req.ID]; ok {
			r.grant = prev
		}
	}
	return grant, wrapped, nil
}

// AdjustSegR lowers a SegR's grant to the backward-pass minimum
// (admission.State.AdjustGrant), in the admitter and in the SegR's record.
func (c *CPlane) AdjustSegR(id reservation.ID, finalKbps uint64) error {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.segs[id]
	if !ok {
		return ErrUnknownSegR
	}
	if err := sh.adm.AdjustGrant(id, finalKbps); err != nil {
		return err
	}
	r.grant = finalKbps
	return nil
}

// AbortSegR rolls back a fresh AddSegR after a downstream setup failure.
// It must only be used for setups — the ledger is dropped with the SegR, so
// aborting a renewal would orphan admitted EER charges (renewals roll back
// through their undo closure instead). An EER admitted over the SegR in the
// meantime goes with it, as DropSegR's do.
func (c *CPlane) AbortSegR(id reservation.ID) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	r := c.detach(sh, id)
	sh.mu.Unlock()
	if r != nil {
		c.purge(r)
	}
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
	// this AS does not hold. A record matches the path where its handles are
	// these.
	h    [2]segH
	nseg int
	now  uint32
	prim *cplaneShard // shard of the first SegR, which owns the EER records
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
	if len(segs) == 2 {
		p.nseg = 2
		p.h[1], p.rec[1] = c.shardFor(segs[1]).resolve(segs[1])
	}
	fn(p)
}

// withHandles is withPath over the two distinct SegRs of a transfer-AS record
// named by handle, which must name SegRs (their shards are locked here, from
// the shard index each handle carries, in ascending order).
func (c *CPlane) withHandles(h, h2 segH, fn func(p eerPath)) {
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
	p.nseg, p.h[1], p.rec[1] = 2, h2, c.slot(h2).rec
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
	p := eerPath{c: c, nseg: 1, now: now, prim: sh}
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
	if e == nil || e.seg != p.h[0] {
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
func (p *eerPath) covers(e *cpEER) bool { return e.seg == p.h[0] && e.seg2 == p.h[1] }

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
func (p *eerPath) readAhead(items []EEBatchItem, status []uint8) (sum uint16) {
	for i := range items {
		if status[i] != EEItemOK {
			continue
		}
		if e := p.prim.eers.Get(items[i].ID); e != nil {
			sum += e.ver
		}
	}
	return sum
}

// allowRenew is the per-EER renewal limit of §4.2 (one per second) for a
// renewal that found its record e: the second of the last one let through is in
// the record, so the throttle costs no lookup of its own — and a record that is
// lost takes its mark with it. It stamps e in place; renewRec keeps the stamp
// with whichever version survives. A renewal that finds no record is a
// re-admission: it is admitted as a setup and marks the record it creates
// (setup), so a second one within the second finds the mark.
func (p *eerPath) allowRenew(e *cpEER) bool {
	if e.lastRenew == p.now {
		return false
	}
	e.lastRenew = p.now
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

// charge adds bwKbps over [startT, expT) to every covering ledger, or to none.
//
//colibri:nomalloc
func (p *eerPath) charge(startT, expT uint32, bwKbps uint64) error {
	for k, r := range p.rec[:p.nseg] {
		err := ErrUnknownSegR
		if r != nil {
			err = r.led.Charge(startT, expT, int64(bwKbps))
		}
		if err != nil {
			if k == 1 {
				p.rec[0].led.Discharge(startT, expT, int64(bwKbps))
			}
			return err
		}
	}
	return nil
}

// discharge withdraws the charge of record e, which the path covers, from
// every covering ledger.
//
//colibri:nomalloc
func (p *eerPath) discharge(e *cpEER) { p.dischargeOf(e.startT, e.expT, uint64(e.bw)) }

// dischargeOf withdraws bwKbps over [startT, expT), a charge of a record the
// path covers, from every covering ledger.
//
//colibri:nomalloc
func (p *eerPath) dischargeOf(startT, expT uint32, bwKbps uint64) {
	for _, r := range p.rec[:p.nseg] {
		r.led.Discharge(startT, expT, int64(bwKbps))
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
	if !e.held {
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
	if v.BwKbps <= bw || expT <= p.now || p.charge(p.now, expT, v.BwKbps-bw) != nil {
		return
	}
	h, _ := p.prim.held.Put(eer)
	*h = heldPiece{charge: v.BwKbps - bw, startT: p.now, expT: expT}
	e.held = true
}

// unhold withdraws record e's held piece, if it has one, and forgets it.
//
//colibri:nomalloc
func (p *eerPath) unhold(eer reservation.ID, e *cpEER) {
	if !e.held {
		return
	}
	h := p.prim.held.Get(eer)
	p.dischargeOf(h.startT, h.expT, h.charge)
	p.prim.held.Delete(eer)
	e.held = false
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

// admit charges a new EER of bwKbps over [startT, expT) against the covering
// SegRs — one for most hops, two at a transfer AS (§4.7), in which case the
// demand must fit under BOTH SegRs' grants and is charged on both ledgers.
// Admission is full-or-nothing. The record carries ver for idempotent dedup;
// the first covering SegR is the primary one, whose shard owns the record.
//
// The record table is probed once: the insertion finds a record the EER
// already has (under any SegR: ErrExists) or adds a fresh one, which a ledger
// refusal deletes again. The fresh record is the dense array's last, and
// deleting it restores every other record in place, so a refusal leaves the
// records, the ledgers and the tallies as they were.
//
//colibri:nomalloc
func (p *eerPath) admit(eer reservation.ID, bwKbps uint64, startT, expT uint32, ver uint16, lastRenew uint32) error {
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
	if p.free(bwKbps, startT, expT) >= bwKbps {
		err = p.charge(startT, expT, bwKbps)
	}
	if err != nil {
		p.prim.eers.Delete(eer)
		return err
	}
	p.fill(e, bwKbps, startT, expT, ver, lastRenew)
	return nil
}

// fill writes a fresh version into record e, naming the path's SegRs, whose
// ledgers the caller has just charged with it (bwKbps ≤ MaxEERKbps). Each SegR
// learns that a record names it.
//
//colibri:nomalloc
func (p *eerPath) fill(e *cpEER, bwKbps uint64, startT, expT uint32, ver uint16, lastRenew uint32) {
	*e = cpEER{seg: p.h[0], seg2: p.h[1], bw: uint32(bwKbps),
		startT: startT, expT: expT, ver: ver, lastRenew: lastRenew}
	for _, r := range p.rec[:p.nseg] {
		r.named = true
	}
}

// setup is admit from now, counted. renewal marks the re-admission of a
// renewal whose record this AS no longer holds: the new record carries the
// throttle's stamp of this second.
func (p *eerPath) setup(eer reservation.ID, bwKbps uint64, expT uint32, ver uint16, renewal bool) error {
	var lastRenew uint32
	if renewal {
		lastRenew = p.now
	}
	err := p.admit(eer, bwKbps, p.now, expT, ver, lastRenew)
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
		if err = p.charge(p.now, expT, grant); err == nil {
			e.bw, e.startT, e.expT, e.ver = uint32(grant), p.now, expT, ver
			p.hold(eer, e, p.older(grant, prev, held))
			return grant, nil, false
		}
	}
	if e.expT <= p.now || p.charge(e.startT, e.expT, uint64(e.bw)) != nil {
		p.prim.eers.Delete(eer)
		return 0, err, true
	}
	p.hold(eer, e, held)
	return 0, err, false
}

// renew is renewRec, counted. Callers needing rollback keep the previous
// version's fields and reinstate it with RestoreEERPath.
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
	return expT > p.now && bwKbps <= MaxEERKbps && p.charge(p.now, expT, bwKbps) == nil
}

// RestoreEERPath force-reinstates a previous EER version after a downstream
// failure rolled back a setup or renewal: the current charges are removed
// and the given version is re-charged without an admission check (it is the
// caller's own prior state, which fits by construction once the newer
// charge is gone), with held — what the record kept held beside it (heldOf)
// — held again. An already-expired version (expT <= now) removes the record
// entirely. The renewal throttle's stamp stays with the record. A record
// admitted over another covering set is left alone (covers).
func (c *CPlane) RestoreEERPath(eer reservation.ID, segs []reservation.ID, bwKbps uint64, expT uint32, ver uint16, held EERVersion) {
	c.withPath(segs, func(p eerPath) {
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
				c.eerCount.Add(-1)
			}
			return
		}
		var lastRenew uint32
		if e != nil {
			lastRenew = e.lastRenew
		} else {
			e, _ = p.prim.eers.Put(eer)
			c.eerCount.Add(1)
		}
		p.fill(e, bwKbps, p.now, expT, ver, lastRenew)
		p.hold(eer, e, held)
	})
}

// AdjustEERPath lowers an EER's charge to the backward-pass final grant
// (the response leg shrinking a grant to the path-wide minimum), in place,
// and keeps held what §4.2 keeps of the versions the renewal replaced: prev,
// the version the record carried before it, and held, what it kept beside
// that (zero for a setup). A zero final removes the record. Unknown EERs, and
// records admitted over another covering set (covers), are left alone.
func (c *CPlane) AdjustEERPath(eer reservation.ID, segs []reservation.ID, finalKbps uint64, prev, held EERVersion) {
	c.withPath(segs, func(p eerPath) {
		e := p.lookup(eer)
		if e == nil || !p.covers(e) {
			return
		}
		p.unhold(eer, e)
		if finalKbps > 0 && p.recharge(e, e.expT, finalKbps) {
			e.bw, e.startT = uint32(finalKbps), p.now
			p.hold(eer, e, p.older(finalKbps, prev, held))
			return
		}
		if finalKbps == 0 {
			p.discharge(e)
		}
		p.prim.eers.Delete(eer)
		c.eerCount.Add(-1)
	})
}

// TeardownEERPath removes an EER and both its charges on every covering SegR.
// Unknown EERs, and records admitted over another covering set (covers), are
// left alone.
func (c *CPlane) TeardownEERPath(eer reservation.ID, segs []reservation.ID) {
	c.withPath(segs, func(p eerPath) {
		if e := p.lookup(eer); e != nil && p.covers(e) {
			p.release(eer, e)
			p.prim.eers.Delete(eer)
			c.eerCount.Add(-1)
		}
	})
}

// DropSegR force-removes a SegR (store cleanup of an expired or torn-down
// segment) along with every EER record referencing it — including
// transfer-AS records whose OTHER covering segment survives: a §4.7 EER
// loses its reservation when either covering SegR goes. The SegR leaves its
// shard first, so no EER is admitted over it while its records go (purge).
func (c *CPlane) DropSegR(id reservation.ID) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	r := c.detach(sh, id)
	sh.mu.Unlock()
	if r != nil {
		c.purge(r)
	}
}

// purge removes every EER record that names r, a detached SegR, and then
// frees r's handle for reuse: no record names a handle once it is free, so
// none can name the SegR that takes it next. A SegR no record ever named has
// none to look for. Locks are taken strictly one shard at a time but for the
// transfer-AS records, which go under their two (removePair); each shard's
// records are walked as Tick walks them, deleting in place. Every
// transfer-AS record removed is reported to the expiry callback, as Tick
// reports the ones that lapse.
func (c *CPlane) purge(r *segRec) {
	h := r.h
	if r.named {
		now := c.clock()
		var pairs []pairRef
		removed := 0
		for _, sh := range c.shards {
			sh.mu.Lock()
			for i := sh.eers.Len() - 1; i >= 0; i-- {
				eid, e := sh.eers.At(i)
				if e.seg != h && e.seg2 != h {
					continue
				}
				if e.seg2 != 0 {
					pairs = append(pairs, pairRef{eer: eid, seg: e.seg, seg2: e.seg2})
					continue
				}
				p := c.pathOf(sh, e.seg, now)
				p.release(eid, e)
				sh.eers.Delete(eid)
				removed++
			}
			sh.mu.Unlock()
		}
		for _, pr := range pairs {
			if c.removePair(pr, func(e *cpEER) bool { return e.seg == h || e.seg2 == h }, 0) {
				removed++
			}
		}
		c.eerCount.Add(-int64(removed))
	}
	sh := c.shards[c.shardOf(h)]
	sh.mu.Lock()
	slot := uint32(h)>>c.shardBits - 1
	sh.reg[slot] = regSlot{}
	sh.free = append(sh.free, slot)
	sh.mu.Unlock()
}
