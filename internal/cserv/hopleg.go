// hopleg.go — the one admission leg an EER request runs at a hop: dedup →
// throttle → §4.7 transfer split → charge → settle, then a commit that clamps
// to the path-wide grant, or a rollback. The solo handler (tags 4/5, eer.go)
// is an envelope around a leg of one item, the wave handler (tag 7,
// batchrenew.go) around a loop of them; neither touches the transfer split,
// the renewal throttle or an EER record on its own. A request's forward pass
// runs under one acquisition of the covering SegRs' shard locks
// (CPlane.withPath), its commits and rollbacks under another. An item's state
// lives in the caller's memory: the leg allocates nothing.
//
// The release discipline: a transfer-split admission is returned on every exit
// path in exactly what it no longer claims, so the split's books track
// precisely the live committed charges (DESIGN.md §7a). Refused by the split:
// what it added, at once. Refused by the ledger: the whole admission.
// Admitted: settled to the admitted charge before the next item's admission.
// Committed: clamped to the path-wide grant. Rolled back: the rest, and the
// replaced version's charge re-added. A pair dropped, or dropped and formed
// again, while a leg is in flight gets nothing back from it (eerPath.books).
package cserv

import (
	"colibri/internal/admission"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// hopCover names the covering SegRs of one hop of a chain — one normally, two
// at a transfer AS —, where this AS's admission state for an EER over it lives.
type hopCover struct {
	ids [2]reservation.ID
	n   int
}

// segs returns the covering set as the CPlane's path functions take it.
func (c *hopCover) segs() []reservation.ID { return c.ids[:c.n] }

// splitBooks is the §4.7 split's books of an up→core pair: the pair's demand
// (each request capped at the up-SegR's bandwidth) and grants, in its
// pair-table entry, and their total over the core-SegR, in its record. The
// zero splitBooks is none, which returns and re-charges nothing.
type splitBooks struct {
	pair *segPair
	core *segRec
}

// splits reports whether p is an up-SegR joined to a core-SegR, where the
// split applies; the core→down pair at the far transfer AS carries none.
//
//colibri:nomalloc
func (p *eerPath) splits() bool {
	return p.nseg == 2 && p.rec[0] != nil && p.rec[1] != nil &&
		p.rec[0].segType == segment.Up && p.rec[1].segType == segment.Core
}

// splitBooks returns the books of p's pair, which splits, interning the pair
// if no record or leg has named it yet.
//
//colibri:nomalloc
func (p *eerPath) splitBooks() splitBooks {
	if p.cover == unknownSegR {
		p.cover = p.prim.intern(p.rec[0], p.h[1])
		p.rec[0].named, p.rec[1].named = true, true
	}
	return splitBooks{pair: &p.prim.pairs[p.cover&^pairBit], core: p.rec[1]}
}

// books returns the books of pair ph (0 for none) of p's primary shard while
// the pair is still generation gen, and none once it was dropped, or dropped
// and formed again. The pair's SegRs are p's, their shards locked.
//
//colibri:nomalloc
func (p *eerPath) books(ph segH, gen uint32) splitBooks {
	if ph == 0 || p.prim.pairs[ph&^pairBit].gen != gen {
		return splitBooks{}
	}
	b := &p.prim.pairs[ph&^pairBit]
	return splitBooks{pair: b, core: p.c.slot(b.h2).rec}
}

// admit adds a request of reqKbps, cappedKbps of it as demand, to the books
// and returns its grant (admission.SplitGrant).
//
//colibri:nomalloc
func (b splitBooks) admit(reqKbps, cappedKbps, coreCapKbps, availKbps uint64) uint64 {
	b.pair.demand += cappedKbps
	b.core.splitTotal += cappedKbps
	grant := admission.SplitGrant(reqKbps, availKbps, coreCapKbps, b.pair.demand, b.core.splitTotal, b.pair.granted)
	b.pair.granted += grant
	return grant
}

// release returns demand and grants to the books, none below zero; charge
// re-adds them, for a rollback that reinstates a version whose charge
// settling returned.
//
//colibri:nomalloc
func (b splitBooks) release(demandKbps, grantKbps uint64) {
	if b.pair != nil {
		b.pair.demand -= min(b.pair.demand, demandKbps)
		b.core.splitTotal -= min(b.core.splitTotal, demandKbps)
		b.pair.granted -= min(b.pair.granted, grantKbps)
	}
}

//colibri:nomalloc
func (b splitBooks) charge(demandKbps, grantKbps uint64) {
	if b.pair != nil {
		b.pair.demand += demandKbps
		b.core.splitTotal += demandKbps
		b.pair.granted += grantKbps
	}
}

// hopItem is one EER request's admission state at one hop, between admit and
// commit or rollback.
type hopItem struct {
	// grant is, going into admit, the bandwidth asked of this hop (the grant
	// accumulated before it) and, coming out, what this hop grants: a retry's
	// committed bandwidth, and for a refusal 0 or what the transfer split offered
	// (a setup, granted in full or not at all, may be offered less than it asks).
	grant uint64
	// admitted: this leg charged the item and owns its rollback. A retry is
	// live but not admitted: the round that committed it owns that version.
	admitted bool
	// The record this request replaces (the CPlane holds one version per EER),
	// for the rollback that reinstates it, and what the record kept held beside
	// it (§4.2), which the commit and the rollback keep held.
	hadPrev  bool
	prevBw   uint64
	prevExpT uint32
	prevVer  uint16
	prevHeld EERVersion
	// What the item still holds of the transfer split: the books of pair
	// tPair (0 for none) at generation tGen. prevReleased: settling returned
	// the replaced version's charge, which a rollback re-adds.
	prevReleased    bool
	tCapped, tGrant uint64
	tPair           segH
	tGen            uint32
}

// hopLeg is what the items of one request share at one hop: the protocol
// facts that parameterise the leg, and its outcome tallies.
type hopLeg struct {
	s *Service
	hopCover
	// src is the AS whose key authenticated the request. The leg addresses
	// records by (src, num) only, so a request cannot reach another source's
	// EERs whatever IDs its items carry.
	src topology.IA
	// renewal: tag 5 or 7. A renewal replaces the record it finds, may be
	// granted less than it asks (§4.2) and is throttled per EER; a setup is
	// granted in full or refused (§4.7).
	renewal bool

	dedups, throttled, refused uint64
}

// open checks, first under p's locks, that this AS holds every SegR of the
// cover: a request over one it does not hold is refused whole
// (RefusedUnknownSegR).
func (l *hopLeg) open(p *eerPath) Refusal {
	for k := range p.nseg {
		if p.rec[k] == nil {
			return RefusedUnknownSegR
		}
	}
	return Granted
}

// admit runs one item's forward leg against p, the CPlane's covering-SegR set
// with its shard locks held (open has passed), and returns its per-item
// status: Granted, RefusedThrottled, RefusedBandwidth for a window past one
// EER lifetime or from the transfer split, RefusedStale for a re-admission the
// ledger refused, and otherwise the ledger's refusal.
//
//colibri:nomalloc
func (l *hopLeg) admit(p *eerPath, it *hopItem, num uint32, ver uint16, expT uint32) Refusal {
	id := reservation.ID{SrcAS: l.src, Num: num}
	asked := it.grant
	// A version lives one EER lifetime (§4.2): a longer window is refused
	// before anything is looked up or charged.
	if expT > p.now+reservation.EERLifetimeSeconds {
		l.refused++
		it.grant = 0
		return RefusedBandwidth
	}
	// Idempotent retry detection (idempotency key: (ID, Ver) with matching
	// expiry): a lost response leaves every hop downstream of the loss
	// committed, so a retried request finds its own version here. Answer from
	// it instead of admitting again — and decide before the renewal throttle,
	// which must not refuse the retry of the very renewal it just let through.
	// prev is the table's record, which the throttle stamps and the renewal
	// rewrites in place: what the rollback needs of the version it replaces is
	// copied into the item first.
	prev := p.lookup(id)
	if it.hadPrev = prev != nil; it.hadPrev {
		it.prevBw, it.prevVer, it.prevExpT, it.prevHeld = uint64(prev.bw), prev.ver, prev.expT, p.heldOf(id, prev)
		if prev.ver == ver && prev.expT == expT {
			it.grant = uint64(prev.bw)
			l.dedups++
			return Granted
		}
	}
	// A renewal that finds no record (expired, or lost in a crash) is a
	// re-admission: admitted as a setup so the flow re-promotes instead of
	// staying demoted (§3.2), its record born stamped — the throttle is the
	// record's alone.
	renewing := l.renewal && it.hadPrev
	if renewing && !p.allowRenew(prev) {
		l.throttled++
		it.grant = 0
		return RefusedThrottled
	}
	// The ledgers still carry a renewed EER's own live charge, which the
	// renewal replaces.
	prevLive := renewing && it.prevExpT > p.now
	grant := asked
	var b splitBooks
	if p.splits() {
		// Transfer-AS proportional split between up- and core-SegR (§4.7).
		b = p.splitBooks()
		avail := min(p.avail(0, expT), p.avail(1, expT))
		if prevLive {
			// renew withdraws the live charge before probing: credit it so the
			// split sees the true post-renewal headroom.
			avail += it.prevBw
		}
		it.tCapped = min(asked, p.rec[0].active.BwKbps)
		grant = b.admit(asked, it.tCapped, p.rec[1].active.BwKbps, avail)
		if grant == 0 || (!l.renewal && grant < asked) {
			b.release(it.tCapped, grant)
			l.refused++
			it.grant = grant
			return RefusedBandwidth
		}
		it.tGrant, it.tPair, it.tGen = grant, p.cover, b.pair.gen
	}
	// Charge the covering ledgers; commit adjusts down to the path-wide
	// minimum on the way back.
	var err error
	if renewing {
		// Renewals may legally shrink to the free bandwidth (§4.2).
		grant, err = p.renew(id, prev, grant, expT, ver)
	} else {
		err = p.setup(id, grant, expT, ver, l.renewal)
	}
	if err != nil {
		releaseSplit(b, it)
		l.refused++
		it.grant = 0
		if l.renewal && !renewing {
			return RefusedStale
		}
		return refusalOf(err)
	}
	it.grant, it.admitted = grant, true
	if it.tPair != 0 {
		b.release(it.tCapped-it.tGrant, 0)
		it.tCapped = it.tGrant
		if prevLive {
			b.release(it.prevBw, it.prevBw)
			it.prevReleased = true
		}
	}
	return Granted
}

// releaseSplit returns what item it still holds of the transfer split's books
// b.
//
//colibri:nomalloc
func releaseSplit(b splitBooks, it *hopItem) {
	if it.tPair != 0 {
		b.release(it.tCapped, it.tGrant)
		it.tPair = 0
	}
}

// commit clamps a live item — admitted, or a retry's committed version — to
// final, the path-wide grant (final ≤ it.grant ≤ tGrant by construction),
// against p, the covering set with its shard locks held: the ledgers' charge,
// and the split's record of it, which tracks live committed bandwidth and not
// request history. The versions a renewal replaced stay held where they exceed
// final (§4.2).
//
//colibri:nomalloc
func (l *hopLeg) commit(p *eerPath, it *hopItem, num uint32, final uint64) {
	if final < it.grant {
		var prev EERVersion
		if l.renewal && it.hadPrev {
			prev = EERVersion{BwKbps: it.prevBw, ExpT: it.prevExpT}
		}
		p.adjust(reservation.ID{SrcAS: l.src, Num: num}, final, prev, it.prevHeld)
	}
	if it.tPair != 0 {
		p.books(it.tPair, it.tGen).release(it.tCapped-final, it.tGrant-final)
		it.tPair = 0
	}
}

// rollback undoes an admitted item after a downstream failure, against p as
// commit does: the CPlane reinstates the version the renewal replaced, or
// drops the record of a setup or re-admission. An item this leg did not admit
// is left alone.
//
//colibri:nomalloc
func (l *hopLeg) rollback(p *eerPath, it *hopItem, num uint32) {
	if !it.admitted {
		return
	}
	it.admitted = false
	b := p.books(it.tPair, it.tGen)
	releaseSplit(b, it)
	if it.prevReleased {
		b.charge(it.prevBw, it.prevBw)
	}
	id := reservation.ID{SrcAS: l.src, Num: num}
	if l.renewal && it.hadPrev {
		p.restore(id, it.prevBw, it.prevExpT, it.prevVer, it.prevHeld)
	} else {
		p.teardown(id)
	}
}

// count adds the leg's tallies to the service's counters, once per request. A
// refused renewal leaves the flow on its previous version: a fallback.
func (l *hopLeg) count() {
	if l.dedups+l.throttled+l.refused == 0 {
		return
	}
	m := &l.s.metrics
	m.DedupHits.Add(l.dedups)
	m.RenewThrottle.Add(l.throttled)
	m.AdmReject.Add(l.refused)
	if l.renewal {
		m.AdmFallback.Add(l.refused)
	}
}
