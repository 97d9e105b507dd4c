// cplane_live.go — the CPlane surface consumed by the live request path
// (service.go / segr.go / eer.go) when a Service runs in CPlane mode
// (Config.CPlaneShards > 0).
//
// The batch engine in cplane.go keeps its one-lock-per-op discipline; the
// live path additionally needs
//
//   - SegR admission wrappers that mirror admission.Admitter's renewal/
//     adjust/abort surface while keeping the per-shard segBw cache and the
//     EER demand ledgers coherent,
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
// deadlock-free; DropSegR takes its locks strictly one at a time.
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
	sh := c.shardFor(seg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	led, ok := sh.ledgers[seg]
	if !ok {
		return 0
	}
	led.Advance(fromT)
	return headroom(sh.segBw[seg], led.MaxDemand(fromT, toT))
}

// SegDemandMax returns the maximum outstanding EER demand on the SegR from
// now to the end of any admitted EER's lifetime — the CPlane-mode
// replacement for the store's AllocatedEERKbps in the activation
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

// AdjustSegR lowers a SegR's grant to the backward-pass minimum, mirroring
// admission.Admitter.AdjustGrant while keeping the segBw cache coherent.
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
// strictly in order.
type eerPath struct {
	c *CPlane
	// segs[:nseg] is the normalized set: one entry, or two distinct ones. Held
	// by value, so that a caller's set may live on its stack.
	segs [2]reservation.ID
	nseg int
	now  uint32
	prim *cplaneShard // shard of segs[0], which owns the EER records
	// led and segBw are each covering SegR's demand ledger (nil when unknown)
	// and current grant, resolved once while the locks are held.
	led   [2]*restree.Ledger[reservation.ID]
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
	p := eerPath{c: c, nseg: len(segs), now: c.clock(), prim: c.shardFor(segs[0])}
	for k, seg := range segs {
		sh := c.shardFor(seg)
		p.segs[k], p.led[k], p.segBw[k] = seg, sh.ledgers[seg], sh.segBw[seg]
	}
	fn(p)
}

// lookup returns the EER's record under the primary covering SegR — what
// LookupEER returns, for the handlers' dedup and previous-version capture.
func (p *eerPath) lookup(eer reservation.ID) (cpEER, bool) {
	e, ok := p.prim.eers[eer]
	if !ok || e.seg != p.segs[0] {
		return cpEER{}, false
	}
	return e, true
}

// avail is SegAvail for covering SegR k over [now, toT).
func (p *eerPath) avail(k int, toT uint32) uint64 {
	led := p.led[k]
	if led == nil {
		return 0
	}
	led.Advance(p.now)
	return headroom(p.segBw[k], led.MaxDemand(p.now, toT))
}

// setup admits an EER of bwKbps until expT against the covering SegRs — one
// for most hops, two at a transfer AS (§4.7), in which case the demand must
// fit under BOTH SegRs' grants and is charged on both ledgers. Admission is
// full-or-nothing. The record carries ver for idempotent dedup; segs[0] is
// the primary segment that owns the record.
func (p *eerPath) setup(eer reservation.ID, bwKbps uint64, expT uint32, ver uint16) error {
	c, now := p.c, p.now
	err := restree.ErrExists
	if p.nseg == 1 {
		err = p.prim.setupEERLocked(eer, p.segs[0], bwKbps, now, now, expT, ver)
	} else if _, dup := p.prim.eers[eer]; !dup {
		err = p.setupPair(eer, bwKbps, expT, ver)
	}
	switch err {
	case nil:
		c.eerCount.Add(1)
		c.admits.Add(1)
	case restree.ErrExists:
		// An idempotent retry hitting committed state, not a refusal.
		c.dedups.Add(1)
	default:
		c.rejects.Add(1)
	}
	return err
}

func (p *eerPath) setupPair(eer reservation.ID, bwKbps uint64, expT uint32, ver uint16) error {
	for k, led := range p.led {
		if led == nil {
			return ErrUnknownSegR
		}
		led.Advance(p.now)
		if bwKbps > headroom(p.segBw[k], led.MaxDemand(p.now, expT)) {
			return ErrInsufficient
		}
	}
	if err := reservePair(p.led[0], p.led[1], eer, p.now, expT, int64(bwKbps)); err != nil {
		return err
	}
	p.prim.eers[eer] = cpEER{seg: p.segs[0], seg2: p.segs[1], bw: bwKbps, expT: expT, ver: ver}
	return nil
}

// renew replaces the record e (just returned by lookup) with a version of
// min(bwKbps, free), where free is evaluated against EVERY covering SegR at
// this AS. A zero grant restores the previous version when it is still live
// (§4.2 fallback) and reports ErrInsufficient. Callers needing rollback keep
// e and reinstate it with RestoreEERPath.
func (p *eerPath) renew(eer reservation.ID, e cpEER, bwKbps uint64, expT uint32, ver uint16) (uint64, error) {
	if p.nseg == 1 {
		it := EERRenewal{EER: eer, Seg: p.segs[0], BwKbps: bwKbps, ExpT: expT, Ver: ver}
		g, err, gone := p.prim.renewRecLocked(e, &it, p.now)
		p.c.tallyRenew(err, gone)
		return g, err
	}
	if e.seg2 != p.segs[1] {
		p.c.stale.Add(1)
		return 0, ErrUnknownEER
	}
	g, err, gone := p.renewPair(eer, e, bwKbps, expT, ver)
	p.c.tallyRenew(err, gone)
	return g, err
}

func (p *eerPath) renewPair(eer reservation.ID, e cpEER, bwKbps uint64, expT uint32, ver uint16) (grant uint64, err error, gone bool) {
	now, led0, led1 := p.now, p.led[0], p.led[1]
	if led0 == nil || led1 == nil {
		return 0, ErrUnknownSegR, false
	}
	led0.Advance(now)
	led1.Advance(now)
	// A renewal replaces the version: remove the old charges before probing.
	led0.Teardown(eer)
	led1.Teardown(eer)
	grant = min(bwKbps,
		headroom(p.segBw[0], led0.MaxDemand(now, expT)),
		headroom(p.segBw[1], led1.MaxDemand(now, expT)))
	err = ErrInsufficient
	if grant > 0 {
		if err = reservePair(led0, led1, eer, now, expT, int64(grant)); err == nil {
			p.prim.eers[eer] = cpEER{seg: p.segs[0], seg2: p.segs[1], bw: grant, expT: expT, ver: ver}
			return grant, nil, false
		}
	}
	// Refused, or the window is invalid: restore the old version if it is
	// still live, else the record goes.
	if e.expT > now && reservePair(led0, led1, eer, now, e.expT, int64(e.bw)) == nil {
		return 0, err, false
	}
	delete(p.prim.eers, eer)
	return 0, err, true
}

// SetupEERPath is eerPath.setup under the covering SegRs' shard locks.
func (c *CPlane) SetupEERPath(eer reservation.ID, segs []reservation.ID, bwKbps uint64, expT uint32, ver uint16) (err error) {
	c.withPath(segs, func(p eerPath) { err = p.setup(eer, bwKbps, expT, ver) })
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

// reservePair charges both ledgers or neither.
func reservePair(led0, led1 *restree.Ledger[reservation.ID], eer reservation.ID, now, expT uint32, bw int64) error {
	if err := led0.Reserve(eer, now, expT, bw); err != nil {
		return err
	}
	if err := led1.Reserve(eer, now, expT, bw); err != nil {
		led0.Teardown(eer)
		return err
	}
	return nil
}

// discharge removes the EER's charge from every covering ledger.
func (p *eerPath) discharge(eer reservation.ID) {
	for _, led := range p.led[:p.nseg] {
		if led != nil {
			led.Teardown(eer)
		}
	}
}

// recharge replaces the EER's charge on every covering ledger with bwKbps
// over [now, expT), WITHOUT an admission check. It reports false — and leaves
// no charge behind, a partial one must not stand — when the window is empty
// or a ledger is missing or refuses it.
func (p *eerPath) recharge(eer reservation.ID, expT uint32, bwKbps uint64) bool {
	p.discharge(eer)
	if expT <= p.now {
		return false
	}
	for _, led := range p.led[:p.nseg] {
		if led == nil || led.Reserve(eer, p.now, expT, int64(bwKbps)) != nil {
			p.discharge(eer)
			return false
		}
	}
	return true
}

// RestoreEERPath force-reinstates a previous EER version after a downstream
// failure rolled back a setup or renewal: the current charges are removed
// and the given version is re-charged without an admission check (it is the
// caller's own prior state, which fits by construction once the newer
// charge is gone). An already-expired version (expT <= now) removes the
// record entirely.
func (c *CPlane) RestoreEERPath(eer reservation.ID, segs []reservation.ID, bwKbps uint64, expT uint32, ver uint16) {
	c.withPath(segs, func(p eerPath) {
		_, had := p.prim.eers[eer]
		if !p.recharge(eer, expT, bwKbps) {
			if had {
				delete(p.prim.eers, eer)
				c.eerCount.Add(-1)
			}
			return
		}
		rec := cpEER{seg: p.segs[0], bw: bwKbps, expT: expT, ver: ver}
		if p.nseg == 2 {
			rec.seg2 = p.segs[1]
		}
		p.prim.eers[eer] = rec
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
		if finalKbps == 0 || !p.recharge(eer, e.expT, finalKbps) {
			p.discharge(eer)
			delete(p.prim.eers, eer)
			c.eerCount.Add(-1)
			return
		}
		e.bw = finalKbps
		p.prim.eers[eer] = e
	})
}

// TeardownEERPath removes an EER and its charges on every covering SegR.
// Unknown EERs are a no-op.
func (c *CPlane) TeardownEERPath(eer reservation.ID, segs []reservation.ID) {
	c.withPath(segs, func(p eerPath) {
		if _, ok := p.lookup(eer); ok {
			p.discharge(eer)
			delete(p.prim.eers, eer)
			c.eerCount.Add(-1)
		}
	})
}

// DropSegR force-removes a SegR (store cleanup of an expired or torn-down
// segment) along with every EER record referencing it — including
// transfer-AS records whose OTHER covering segment survives: a §4.7 EER
// loses its reservation when either covering SegR goes. Locks are taken
// strictly one at a time; iteration collects keys and sorts them so runs
// are deterministic.
func (c *CPlane) DropSegR(id reservation.ID) {
	type foreignDrop struct {
		shard int
		seg   reservation.ID
		eer   reservation.ID
	}
	var foreign []foreignDrop
	removed := 0
	for si, sh := range c.shards {
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
			if led := sh.ledgers[e.seg]; led != nil {
				led.Teardown(eid)
			}
			if e.seg2 != (reservation.ID{}) {
				if s2 := c.shardIndex(e.seg2); s2 == si {
					if led := sh.ledgers[e.seg2]; led != nil {
						led.Teardown(eid)
					}
				} else {
					foreign = append(foreign, foreignDrop{shard: s2, seg: e.seg2, eer: eid})
				}
			}
			delete(sh.eers, eid)
			removed++
		}
		sh.mu.Unlock()
	}
	for _, d := range foreign {
		sh := c.shards[d.shard]
		sh.mu.Lock()
		if led := sh.ledgers[d.seg]; led != nil {
			led.Teardown(d.eer)
		}
		sh.mu.Unlock()
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
