// hopleg.go — the one admission leg an EER request runs at a hop: dedup →
// throttle → §4.7 transfer split → charge → settle, then a commit that clamps
// to the path-wide grant, or a rollback. The solo handler (tags 4/5, eer.go)
// is an envelope around a leg of one item, the wave handler (tag 7,
// batchrenew.go) around a loop of them; neither touches the transfer split,
// the renewal throttle or an EER record on its own. An item's state lives in
// the caller's memory: the leg allocates nothing and builds no closure.
//
// The release discipline: a transfer-split admission is returned on every exit
// path in exactly what it no longer claims, so the split tracks precisely the
// live committed charges (dead demand otherwise accumulates until the
// fair-share cap refuses everything; the renewal-storm recovery at 10⁶ flows
// found every one of these). Refused by the split: what Admit added, at once.
// Refused by the ledger: the whole admission. Admitted: settled to the admitted
// charge before the next item's Admit — the over-ask and the replaced version's
// live charge go back, so a later item of a wave sees the demand sequential
// requests would have shown it. Committed: clamped to the path-wide grant.
// Rolled back: the rest, and the replaced version's charge re-added with it.
package cserv

import (
	"fmt"

	"colibri/internal/admission"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// hopCover is the covering SegRs of one hop of a chain: one normally, two at
// a transfer AS. They decide where this AS's admission state for an EER over
// the chain lives.
type hopCover struct {
	ids   [2]reservation.ID
	segRs [2]*reservation.SegR
	n     int
	// split is the transfer split's books for the chain's (core-SegR, up-SegR)
	// pair at the up→core hop, where §4.7's proportional split applies (ids[0]
	// the up-SegR, ids[1] the core-SegR), and nil everywhere else. The core→down
	// pair at the far transfer AS is charged on both ledgers but carries no
	// split. Every item of a request shares the hop's cover, so the pair is
	// resolved once, here.
	split *admission.PairBooks
}

// segs returns the covering set as the CPlane's path functions take it.
func (c *hopCover) segs() []reservation.ID { return c.ids[:c.n] }

// hopCover resolves the SegRs covering hop idx of a pathLen-hop chain. The
// error is the refusal reason.
func (s *Service) hopCover(segIDs []reservation.ID, splits []uint8, pathLen, idx int) (c hopCover, err error) {
	var coverBuf [2]int
	covering := coveringSegs(coverBuf[:0], len(segIDs), splits, pathLen, idx)
	if len(covering) == 0 || len(covering) > 2 {
		return c, fmt.Errorf("hop %d is covered by %d segment reservations, not one or two", idx, len(covering))
	}
	for _, k := range covering {
		sr, err := s.store.GetSegR(segIDs[k])
		if err != nil {
			return c, fmt.Errorf("segment reservation: %v", err)
		}
		c.ids[c.n], c.segRs[c.n] = sr.ID, sr
		c.n++
	}
	if c.n == 2 && c.segRs[0].SegType == segment.Up && c.segRs[1].SegType == segment.Core {
		c.split = s.transfer.Pair(c.ids[1], c.ids[0])
	}
	return c, nil
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
	// What the item still holds of the transfer split. prevReleased records
	// that settling returned the replaced version's charge, which a rollback
	// re-adds with the version.
	tAdmitted, prevReleased bool
	tCapped, tGrant         uint64
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

// admit runs one item's forward leg against p, the CPlane's covering-SegR set
// with its shard locks held, and returns its per-item status (EEItem*). err is
// the ledger's refusal, nil when the throttle or the transfer split refused.
//
//colibri:nomalloc
func (l *hopLeg) admit(p *eerPath, it *hopItem, num uint32, ver uint16, expT uint32) (status uint8, err error) {
	id := reservation.ID{SrcAS: l.src, Num: num}
	asked := it.grant
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
			return EEItemOK, nil
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
		return EEItemThrottled, nil
	}
	// The ledgers still carry a renewed EER's own live charge, which the
	// renewal replaces.
	prevLive := renewing && it.prevExpT > p.now
	grant := asked
	if l.split != nil {
		// Transfer-AS proportional split between up- and core-SegR (§4.7).
		up, core := l.segRs[0], l.segRs[1]
		upAvail, coreAvail := p.avail(0, expT), p.avail(1, expT)
		if prevLive {
			// renew withdraws the live charge before probing: credit it so the
			// split sees the true post-renewal headroom.
			upAvail += it.prevBw
			coreAvail += it.prevBw
		}
		grant = l.split.Admit(asked, up.Active.BwKbps, core.Active.BwKbps, upAvail, coreAvail)
		it.tCapped = min(asked, up.Active.BwKbps)
		if grant == 0 || (!l.renewal && grant < asked) {
			l.split.Release(it.tCapped, grant)
			l.refused++
			it.grant = grant
			return EEItemRefused, nil
		}
		it.tAdmitted, it.tGrant = true, grant
	}
	// Charge the covering ledgers; commit adjusts down to the path-wide
	// minimum on the way back.
	failed := EEItemRefused
	if renewing {
		// Renewals may legally shrink to the free bandwidth (§4.2).
		grant, err = p.renew(id, prev, grant, expT, ver)
	} else {
		err, failed = p.setup(id, grant, expT, ver, l.renewal), EEItemStale
	}
	if err != nil {
		l.releaseSplit(it)
		l.refused++
		it.grant = 0
		return failed, err
	}
	it.grant, it.admitted = grant, true
	if it.tAdmitted {
		l.split.Release(it.tCapped-it.tGrant, 0)
		it.tCapped = it.tGrant
		if prevLive {
			l.split.Release(it.prevBw, it.prevBw)
			it.prevReleased = true
		}
	}
	return EEItemOK, nil
}

// releaseSplit returns what the item still holds of the transfer split.
//
//colibri:nomalloc
func (l *hopLeg) releaseSplit(it *hopItem) {
	if it.tAdmitted {
		l.split.Release(it.tCapped, it.tGrant)
		it.tAdmitted = false
	}
}

// commit clamps a live item — admitted, or a retry's committed version — to
// final, the path-wide grant (final ≤ it.grant ≤ tGrant by construction): the
// ledgers' charge, and the split's record of it, which tracks live committed
// bandwidth and not request history. The versions a renewal replaced stay held
// where they exceed final (§4.2).
//
//colibri:nomalloc
func (l *hopLeg) commit(it *hopItem, num uint32, final uint64) {
	if final < it.grant {
		var prev EERVersion
		if l.renewal && it.hadPrev {
			prev = EERVersion{BwKbps: it.prevBw, ExpT: it.prevExpT}
		}
		l.s.cp.AdjustEERPath(reservation.ID{SrcAS: l.src, Num: num}, l.segs(), final, prev, it.prevHeld)
	}
	if it.tAdmitted {
		l.split.Release(it.tCapped-final, it.tGrant-final)
		it.tAdmitted = false
	}
}

// rollback undoes an admitted item after a downstream failure: the CPlane
// reinstates the version the renewal replaced, or drops the record of a setup
// or re-admission. An item this leg did not admit is left alone.
//
//colibri:nomalloc
func (l *hopLeg) rollback(it *hopItem, num uint32) {
	if !it.admitted {
		return
	}
	it.admitted = false
	l.releaseSplit(it)
	if it.prevReleased {
		l.split.Charge(it.prevBw, it.prevBw)
	}
	id := reservation.ID{SrcAS: l.src, Num: num}
	if l.renewal && it.hadPrev {
		l.s.cp.RestoreEERPath(id, l.segs(), it.prevBw, it.prevExpT, it.prevVer, it.prevHeld)
	} else {
		l.s.cp.TeardownEERPath(id, l.segs())
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
