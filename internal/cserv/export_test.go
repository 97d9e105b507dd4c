package cserv

import (
	"fmt"
	"slices"
	"sort"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// Marshal appends the MACs and the mutable per-item tail to the body.
func (r *EEBatchRenewReq) Marshal() []byte {
	return r.appendTail(appendMacs(r.Body(), r.Macs))
}

// UnmarshalEEBatchRenewReq parses an EEBatchRenewReq.
func UnmarshalEEBatchRenewReq(data []byte) (*EEBatchRenewReq, error) {
	return decodeNew[EEBatchRenewReq](data)
}

// UnmarshalEEBatchRenewResp parses an EEBatchRenewResp. The Blobs of the
// result alias data: they are valid until the caller modifies data, and
// whatever outlives it (a grant's hop authenticators) is opened out of them.
func UnmarshalEEBatchRenewResp(data []byte) (*EEBatchRenewResp, error) {
	return decodeNew[EEBatchRenewResp](data)
}

// RenewEERBatch renews a wave of EERs that share one chain (same SegIDs,
// Splits, and Path — callers group by chain signature, see KeeperFleet) in a
// single batched round trip. newBwKbps[i] is the bandwidth requested for
// prevs[i]. It returns one grant or one error per item; a transport-level
// batch failure yields the same error for every item. Each grant owns its
// HopAuths and shares its chain's slices with its previous version.
func (s *Service) RenewEERBatch(prevs []*EERGrant, newBwKbps []uint64) ([]*EERGrant, []error) {
	grants, errs := make([]*EERGrant, len(prevs)), make([]error, len(prevs))
	if len(prevs) == 0 {
		return grants, errs
	}
	if len(newBwKbps) != len(prevs) {
		err := fmt.Errorf("cserv: RenewEERBatch: %d bandwidths for %d items", len(newBwKbps), len(prevs))
		for i := range errs {
			errs[i] = err
		}
		return grants, errs
	}
	item := func(i int) renewItem {
		p := prevs[i]
		return renewItem{
			ID: p.ID, Ver: p.Res.Ver, BwKbps: p.Res.BwKbps, ExpT: p.Res.ExpT,
			SrcHost: p.EER.SrcHost, DstHost: p.EER.DstHost, NewBwKbps: newBwKbps[i],
		}
	}
	s.renewWave(prevs[0], len(prevs), item, func(i int, g *EERGrant, err error) {
		if errs[i] = err; err == nil {
			c := *g
			c.HopAuths = slices.Clone(g.HopAuths)
			grants[i] = &c
		}
	})
	return grants, errs
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
		for id := range sh.segs {
			segs = append(segs, id)
		}
		sort.Slice(segs, func(i, j int) bool { return segs[i].Less(segs[j]) })
		for _, id := range segs {
			r := sh.segs[id]
			r.led.Advance(now)
			rows = append(rows, SegRAudit{
				Seg:       id,
				GrantKbps: r.grant,
				PeakKbps:  uint64(r.led.MaxDemand(fromT, toT)),
				LiveEERs:  r.led.Len(),
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Seg.Less(rows[j].Seg) })
	return rows
}

// LookupEER returns the admitted record of an EER — bandwidth, protocol
// version, and expiry — for the handlers' idempotent dedup. seg must be the
// EER's primary covering SegR (the first local covering segment, which is
// what the handlers admit under).
func (c *CPlane) LookupEER(eer, seg reservation.ID) (bwKbps uint64, ver uint16, expT uint32, ok bool) {
	sh := c.shardFor(seg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.eers.Get(eer)
	if e == nil || c.slot(e.seg).id != seg {
		return 0, 0, 0, false
	}
	return uint64(e.bw), e.ver, e.expT, true
}

// SegAvail returns the bandwidth available to new EER admissions over the
// SegR during [fromT, toT): the SegR's grant minus the ledger's maximum
// demand over the window. Unknown SegRs have nothing available.
func (c *CPlane) SegAvail(seg reservation.ID, fromT, toT uint32) uint64 {
	now := c.clock()
	sh := c.shardFor(seg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.segs[seg]
	if !ok {
		return 0
	}
	// The clock moves the ledger's floor, never the window asked about: one
	// that lies ahead must not recycle the epochs before it.
	r.led.Advance(now)
	return headroom(r.grant, r.led.MaxDemand(fromT, toT))
}

// Len returns the number of registered offers.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.offers)
}

// SegRsTo returns joinable SegR chains from this AS to dstIA, shortest
// first. It is what the end-host daemon queries before an EER request
// (Appendix C).
func (s *Service) SegRsTo(dstIA topology.IA) ([][]*Offer, error) {
	cs, err := s.chainsTo(dstIA)
	if err != nil {
		return nil, err
	}
	out := make([][]*Offer, len(cs))
	for i := range cs {
		out[i] = slices.Clone(cs[i].offers)
	}
	return out, nil
}

// Len returns the number of keepers in the fleet.
func (f *KeeperFleet) Len() int { return len(f.expT) }

// Renewals returns how many of keeper i's renewal attempts succeeded.
func (f *KeeperFleet) Renewals(i int) uint64 { return uint64(f.renewals[i]) }

// Failures returns how many of keeper i's renewal attempts failed.
func (f *KeeperFleet) Failures(i int) uint64 { return uint64(f.failures[i]) }

// UnmarshalEESetupResp parses an EESetupResp. The EncAuths of the result
// alias data: they are valid until the caller modifies data.
func UnmarshalEESetupResp(data []byte) (*EESetupResp, error) { return decodeNew[EESetupResp](data) }

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
	// LiveEERs is the number of charges on the ledger that have not lapsed (a
	// held piece is a charge of its own).
	LiveEERs int
}

// Body returns the MAC-covered canonical encoding.
func (r *EEBatchRenewReq) Body() []byte {
	return r.appendBody(make([]byte, 0, 64+16*len(r.Path)+eeBatchItemLen*len(r.Items)))
}
