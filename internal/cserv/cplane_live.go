// cplane_live.go — the CPlane surface consumed by the live request path
// (service.go / segr.go / eer.go / batchrenew.go).
//
// The batch engine in cplane.go keeps its one-lock-per-op discipline; the
// live path additionally needs
//
//   - SegR admission wrappers around admission.State's renewal/adjust/abort
//     surface that keep the per-shard segBw cache and the EER demand ledgers
//     coherent,
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
	"sort"

	"colibri/internal/admission"
	"colibri/internal/reservation"
	"colibri/internal/restree"
)

// LookupEER returns the admitted record of an EER — bandwidth, protocol
// version, and expiry — for the handlers' idempotent dedup. seg must be the
// EER's primary covering SegR (the first local covering segment, which is
// what the handlers admit under).
func (c *CPlane) LookupEER(eer, seg reservation.ID) (bwKbps uint64, ver uint16, expT uint32, ok bool) {
	sh := c.shardFor(seg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.eers[eer]
	if !ok || e.seg != seg {
		return 0, 0, 0, false
	}
	return e.bw, e.ver, e.expT, true
}

// SegAvail returns the bandwidth available to new EER admissions over the
// SegR during [fromT, toT): the SegR's grant minus the ledger's maximum
// demand over the window. Unknown SegRs have nothing available.
func (c *CPlane) SegAvail(seg reservation.ID, fromT, toT uint32) uint64 {
	now := c.clock()
	sh := c.shardFor(seg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	led, ok := sh.ledgers[seg]
	if !ok {
		return 0
	}
	// The clock moves the ledger's floor, never the window asked about: one
	// that lies ahead must not recycle the epochs before it.
	led.Advance(now)
	return headroom(sh.segBw[seg], led.MaxDemand(fromT, toT))
}

// SegDemandMax returns the maximum outstanding EER demand on the SegR from
// now to the end of any admitted EER's lifetime, for the activation
// over-allocation check. ok is false for unknown SegRs.
func (c *CPlane) SegDemandMax(seg reservation.ID) (uint64, bool) {
	now := c.clock()
	sh := c.shardFor(seg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	led, ok := sh.ledgers[seg]
	if !ok {
		return 0, false
	}
	led.Advance(now)
	// EER charges never extend past one lifetime from admission, so two
	// lifetimes from now bounds every live window without approaching the
	// ledger horizon.
	m := led.MaxDemand(now, now+2*reservation.EERLifetimeSeconds)
	if m < 0 {
		m = 0
	}
	return uint64(m), true
}

// RenewSegRWithUndo re-admits a SegR on its shard with fresh scale factors,
// returning an undo closure restoring the pre-renewal snapshot (admitter
// state and cached grant). EER charges are untouched in both directions —
// admitted versions keep their allocations until expiry (§4.2).
func (c *CPlane) RenewSegRWithUndo(req admission.Request) (uint64, func(), error) {
	sh := c.shardFor(req.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	prev, ok := sh.segBw[req.ID]
	if !ok {
		return 0, nil, ErrUnknownSegR
	}
	grant, undo, err := sh.adm.RenewSegRWithUndo(req)
	if err != nil {
		c.rejects.Add(1)
		return 0, nil, err
	}
	sh.segBw[req.ID] = grant
	c.renews.Add(1)
	wrapped := func() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if undo != nil {
			undo()
		}
		sh.segBw[req.ID] = prev
	}
	return grant, wrapped, nil
}

// AdjustSegR lowers a SegR's grant to the backward-pass minimum
// (admission.State.AdjustGrant), keeping the segBw cache coherent.
func (c *CPlane) AdjustSegR(id reservation.ID, finalKbps uint64) error {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.segBw[id]; !ok {
		return ErrUnknownSegR
	}
	if err := sh.adm.AdjustGrant(id, finalKbps); err != nil {
		return err
	}
	sh.segBw[id] = finalKbps
	return nil
}

// AbortSegR rolls back a fresh AddSegR after a downstream setup failure.
// It must only be used for setups — the ledger is dropped with the SegR, so
// aborting a renewal would orphan admitted EER charges (renewals roll back
// through their undo closure instead).
func (c *CPlane) AbortSegR(id reservation.ID) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.segBw[id]; !ok {
		return
	}
	sh.adm.Release(id)
	delete(sh.segBw, id)
	delete(sh.ledgers, id)
	c.segCount.Add(-1)
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
// strictly in order. The single-shard engine of cplane.go runs on the same
// methods, over the one-segment path of a shard it has locked (path1).
type eerPath struct {
	c *CPlane
	// segs[:nseg] is the normalized set: one entry, or two distinct ones (the
	// second entry is the zero ID when there is one). Held by value, so that a
	// caller's set may live on its stack.
	segs [2]reservation.ID
	nseg int
	now  uint32
	prim *cplaneShard // shard of segs[0], which owns the EER records
	// led and segBw are each covering SegR's demand ledger (nil when unknown)
	// and current grant, resolved once while the locks are held.
	led   [2]*restree.Profile
	segBw [2]uint64
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
	p := c.path1(c.shardFor(segs[0]), segs[0], c.clock())
	if len(segs) == 2 {
		sh := c.shardFor(segs[1])
		p.nseg, p.segs[1], p.led[1], p.segBw[1] = 2, segs[1], sh.ledgers[segs[1]], sh.segBw[segs[1]]
	}
	fn(p)
}

// path1 is the path of the single covering SegR seg, whose shard sh the
// caller has locked.
//
//colibri:nomalloc
func (c *CPlane) path1(sh *cplaneShard, seg reservation.ID, now uint32) eerPath {
	p := eerPath{c: c, nseg: 1, now: now, prim: sh}
	p.segs[0], p.led[0], p.segBw[0] = seg, sh.ledgers[seg], sh.segBw[seg]
	return p
}

// lookup returns the EER's record under the primary covering SegR — what
// LookupEER returns, for the handlers' dedup and previous-version capture.
//
//colibri:nomalloc
func (p *eerPath) lookup(eer reservation.ID) (cpEER, bool) {
	e, ok := p.prim.eers[eer]
	if !ok || e.seg != p.segs[0] {
		return cpEER{}, false
	}
	return e, true
}

// allowRenew is the per-EER renewal limit of §4.2 (one per second) for a
// renewal that found its record: the second of the last one let through is in
// the record, so the throttle costs no lookup of its own — and a record that is
// lost takes its mark with it. It stamps the caller's copy e; renew stores the
// stamp with whichever version survives, and a renewal that is refused before
// it gets there stores it with keep. A renewal that finds no record is a
// re-admission: it is admitted as a setup and marks the record it creates
// (setup), so a second one within the second finds the mark.
func (p *eerPath) allowRenew(e *cpEER) bool {
	if e.lastRenew == p.now {
		return false
	}
	e.lastRenew = p.now
	return true
}

// keep stores e, unchanged but for allowRenew's stamp, as the EER's record.
func (p *eerPath) keep(eer reservation.ID, e cpEER) { p.prim.eers[eer] = e }

// avail is SegAvail for covering SegR k over [now, toT).
func (p *eerPath) avail(k int, toT uint32) uint64 {
	led := p.led[k]
	if led == nil {
		return 0
	}
	led.Advance(p.now)
	return headroom(p.segBw[k], led.MaxDemand(p.now, toT))
}

// charge adds bwKbps over [startT, expT) to every covering ledger, or to none.
//
//colibri:nomalloc
func (p *eerPath) charge(startT, expT uint32, bwKbps uint64) error {
	for k, led := range p.led[:p.nseg] {
		err := ErrUnknownSegR
		if led != nil {
			err = led.Charge(startT, expT, int64(bwKbps))
		}
		if err != nil {
			if k == 1 {
				p.led[0].Discharge(startT, expT, int64(bwKbps))
			}
			return err
		}
	}
	return nil
}

// discharge withdraws the charge of record e from the covering ledgers — from
// each only if e was charged there: a record admitted under another covering
// set (a chain that changed) leaves the ledger it never touched alone.
//
//colibri:nomalloc
func (p *eerPath) discharge(e cpEER) {
	if p.led[0] != nil && e.seg == p.segs[0] {
		p.led[0].Discharge(e.startT, e.expT, int64(e.bw))
	}
	if p.led[1] != nil && e.seg2 == p.segs[1] {
		p.led[1].Discharge(e.startT, e.expT, int64(e.bw))
	}
}

// ready advances every covering ledger to now; a SegR this AS does not hold
// is ErrUnknownSegR.
//
//colibri:nomalloc
func (p *eerPath) ready() error {
	for _, led := range p.led[:p.nseg] {
		if led == nil {
			return ErrUnknownSegR
		}
		led.Advance(p.now)
	}
	return nil
}

// free is the bandwidth every covering SegR still has over [startT, expT),
// capped at want.
//
//colibri:nomalloc
func (p *eerPath) free(want uint64, startT, expT uint32) uint64 {
	for k, led := range p.led[:p.nseg] {
		want = min(want, headroom(p.segBw[k], led.MaxDemand(startT, expT)))
	}
	return want
}

// admit charges a new EER of bwKbps over [startT, expT) against the covering
// SegRs — one for most hops, two at a transfer AS (§4.7), in which case the
// demand must fit under BOTH SegRs' grants and is charged on both ledgers.
// Admission is full-or-nothing. The record carries ver for idempotent dedup;
// segs[0] is the primary segment that owns the record.
//
//colibri:nomalloc
func (p *eerPath) admit(eer reservation.ID, bwKbps uint64, startT, expT uint32, ver uint16, lastRenew uint32) error {
	if err := p.ready(); err != nil {
		return err
	}
	if _, dup := p.prim.eers[eer]; dup {
		return restree.ErrExists
	}
	if p.free(bwKbps, startT, expT) < bwKbps {
		return ErrInsufficient
	}
	if err := p.charge(startT, expT, bwKbps); err != nil {
		return err
	}
	p.prim.eers[eer] = cpEER{seg: p.segs[0], seg2: p.segs[1], bw: bwKbps,
		startT: startT, expT: expT, ver: ver, lastRenew: lastRenew}
	return nil
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

// renewRec replaces the record e (just returned by lookup) with a version of
// min(bwKbps, free) over [now, expT), where free is evaluated against EVERY
// covering SegR at this AS once e's own charge is withdrawn: a renewal
// replaces the version, it does not stack on it. A zero grant or an invalid
// window puts the previous version back when it is still live (§4.2 fallback)
// and reports the error; gone reports that it was not and the record went.
//
//colibri:nomalloc
func (p *eerPath) renewRec(eer reservation.ID, e cpEER, bwKbps uint64, expT uint32, ver uint16) (grant uint64, err error, gone bool) {
	switch {
	case e.seg2 == p.segs[1]:
		err = p.ready()
	case p.nseg == 1:
		// Transfer-AS record: its second charge lives in another ledger, so the
		// single-segment path must not touch it.
		err = ErrTransferEER
	default:
		err = ErrUnknownEER
	}
	if err == nil {
		p.discharge(e)
		err = ErrInsufficient
		if grant = p.free(bwKbps, p.now, expT); grant > 0 {
			if err = p.charge(p.now, expT, grant); err == nil {
				p.prim.eers[eer] = cpEER{seg: e.seg, seg2: e.seg2, bw: grant,
					startT: p.now, expT: expT, ver: ver, lastRenew: e.lastRenew}
				return grant, nil, false
			}
		}
		if e.expT <= p.now || p.charge(e.startT, e.expT, e.bw) != nil {
			delete(p.prim.eers, eer)
			return 0, err, true
		}
	}
	p.prim.eers[eer] = e
	return 0, err, false
}

// renew is renewRec, counted. Callers needing rollback keep e and reinstate
// it with RestoreEERPath.
func (p *eerPath) renew(eer reservation.ID, e cpEER, bwKbps uint64, expT uint32, ver uint16) (uint64, error) {
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
		e, ok := p.lookup(eer)
		if !ok {
			c.stale.Add(1)
			err = ErrUnknownEER
			return
		}
		grant, err = p.renew(eer, e, bwKbps, expT, ver)
	})
	return grant, err
}

// recharge replaces the charge of record e (none when had is false) with
// bwKbps over [now, expT) on every covering ledger, WITHOUT an admission
// check. It reports false — and leaves no charge behind, a partial one must not
// stand — when the window is empty or a ledger is missing or refuses it.
func (p *eerPath) recharge(e cpEER, had bool, expT uint32, bwKbps uint64) bool {
	if had {
		p.discharge(e)
	}
	return expT > p.now && p.charge(p.now, expT, bwKbps) == nil
}

// RestoreEERPath force-reinstates a previous EER version after a downstream
// failure rolled back a setup or renewal: the current charges are removed
// and the given version is re-charged without an admission check (it is the
// caller's own prior state, which fits by construction once the newer
// charge is gone). An already-expired version (expT <= now) removes the
// record entirely. The renewal throttle's stamp stays with the record.
func (c *CPlane) RestoreEERPath(eer reservation.ID, segs []reservation.ID, bwKbps uint64, expT uint32, ver uint16) {
	c.withPath(segs, func(p eerPath) {
		e, had := p.prim.eers[eer]
		if !p.recharge(e, had, expT, bwKbps) {
			if had {
				delete(p.prim.eers, eer)
				c.eerCount.Add(-1)
			}
			return
		}
		p.prim.eers[eer] = cpEER{seg: p.segs[0], seg2: p.segs[1], bw: bwKbps,
			startT: p.now, expT: expT, ver: ver, lastRenew: e.lastRenew}
		if !had {
			c.eerCount.Add(1)
		}
	})
}

// AdjustEERPath lowers an EER's charge to the backward-pass final grant
// (the response leg shrinking a grant to the path-wide minimum). A zero
// final removes the record. Unknown EERs are a no-op.
func (c *CPlane) AdjustEERPath(eer reservation.ID, segs []reservation.ID, finalKbps uint64) {
	c.withPath(segs, func(p eerPath) {
		e, ok := p.lookup(eer)
		if !ok {
			return
		}
		if finalKbps > 0 && p.recharge(e, true, e.expT, finalKbps) {
			e.bw, e.startT = finalKbps, p.now
			p.prim.eers[eer] = e
			return
		}
		if finalKbps == 0 {
			p.discharge(e)
		}
		delete(p.prim.eers, eer)
		c.eerCount.Add(-1)
	})
}

// TeardownEERPath removes an EER and its charges on every covering SegR.
// Unknown EERs are a no-op.
func (c *CPlane) TeardownEERPath(eer reservation.ID, segs []reservation.ID) {
	c.withPath(segs, func(p eerPath) {
		if e, ok := p.lookup(eer); ok {
			p.discharge(e)
			delete(p.prim.eers, eer)
			c.eerCount.Add(-1)
		}
	})
}

// DropSegR force-removes a SegR (store cleanup of an expired or torn-down
// segment) along with every EER record referencing it — including
// transfer-AS records whose OTHER covering segment survives: a §4.7 EER
// loses its reservation when either covering SegR goes. Locks are taken
// strictly one shard at a time but for the transfer-AS records, which go
// under their two (removePair); iteration collects keys and sorts them so
// runs are deterministic.
func (c *CPlane) DropSegR(id reservation.ID) {
	now := c.clock()
	var pairs []pairRef
	removed := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		var victims []reservation.ID
		for eid, e := range sh.eers {
			if e.seg == id || e.seg2 == id {
				victims = append(victims, eid)
			}
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i].Less(victims[j]) })
		for _, eid := range victims {
			e := sh.eers[eid]
			if e.seg2 != (reservation.ID{}) {
				pairs = append(pairs, pairRef{eer: eid, seg: e.seg, seg2: e.seg2})
				continue
			}
			p := c.path1(sh, e.seg, now)
			p.discharge(e)
			delete(sh.eers, eid)
			removed++
		}
		sh.mu.Unlock()
	}
	for _, r := range pairs {
		if _, ok := c.removePair(r, func(e cpEER) bool { return e.seg == id || e.seg2 == id }); ok {
			removed++
		}
	}
	sh := c.shardFor(id)
	sh.mu.Lock()
	if _, ok := sh.segBw[id]; ok {
		sh.adm.Release(id)
		delete(sh.segBw, id)
		delete(sh.ledgers, id)
		c.segCount.Add(-1)
	}
	sh.mu.Unlock()
	c.eerCount.Add(-int64(removed))
}
