package cserv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"colibri/internal/admission"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
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

// UnmarshalSegActivateReq parses a SegActivateReq.
func UnmarshalSegActivateReq(data []byte) (*SegActivateReq, error) {
	return decodeNew[SegActivateReq](data)
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
	if e == nil {
		return 0, 0, 0, false
	}
	if h, _ := sh.segsOf(e.cover); c.slot(h).id != seg {
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

// AdjustEERPath is eerPath.adjust under the covering SegRs' shard locks.
func (c *CPlane) AdjustEERPath(eer reservation.ID, segs []reservation.ID, finalKbps uint64, prev, held EERVersion) {
	c.withPath(segs, func(p eerPath) { p.adjust(eer, finalKbps, prev, held) })
}

// RestoreEERPath is eerPath.restore under the covering SegRs' shard locks.
func (c *CPlane) RestoreEERPath(eer reservation.ID, segs []reservation.ID, bwKbps uint64, expT uint32, ver uint16, held EERVersion) {
	c.withPath(segs, func(p eerPath) { p.restore(eer, bwKbps, expT, ver, held) })
}

// Tick is tick without the dropped SegRs' IDs.
func (c *CPlane) Tick() int {
	n, _ := c.tick()
	return n
}

// RenewSegR is a SegR renewal's forward pass alone: the SegR re-admitted with
// fresh scale factors, its grant the new one. EER charges are untouched.
func (c *CPlane) RenewSegR(req admission.Request) (uint64, error) {
	l := segLeg{req: req, renewal: true}
	err := c.admitSeg(&l)
	return l.grant, err
}

// setupSegR is a SegR setup's forward pass alone, as the setup handler runs
// it: a fresh SegR of type segType with v, at the grant, as its active
// version.
func (c *CPlane) setupSegR(req admission.Request, segType segment.Type, v reservation.Version) (uint64, error) {
	l := segLeg{req: req, segType: segType, v: v}
	err := c.admitSeg(&l)
	return l.grant, err
}

// confirmSegR is a SegR leg's response pass alone, never rolled back: SegR
// id's grant fixed at final, with a setup's active version or a renewal's v
// as the pending one at final; a nil v with setup false fixes the grant
// alone.
func (c *CPlane) confirmSegR(id reservation.ID, final uint64, setup bool, v *reservation.Version) error {
	l := segLeg{req: admission.Request{ID: id}, renewal: !setup, retry: true, activated: v == nil}
	if v != nil {
		l.v = *v
	}
	return c.settleSeg(&l, final, true)
}

// DropSegR force-removes a SegR along with every EER record referencing it —
// including transfer-AS records whose OTHER covering segment survives: a §4.7
// EER loses its reservation when either covering SegR goes.
func (c *CPlane) DropSegR(id reservation.ID) {
	c.dropIf(id, func(*segRec) bool { return true })
}

// Body returns the MAC-covered canonical encoding.
func (r *SegSetupReq) Body() []byte { return r.appendBody(nil) }

// Marshal appends the MACs and the mutable accumulator to the body.
func (r *SegSetupReq) Marshal() []byte {
	return binary.BigEndian.AppendUint64(appendMacs(r.Body(), r.Macs), r.AccumKbps)
}

// Body returns the MAC-covered canonical encoding.
func (r *SegActivateReq) Body() []byte { return r.appendBody(nil) }

// Marshal appends the MACs to the body.
func (r *SegActivateReq) Marshal() []byte { return appendMacs(r.Body(), r.Macs) }

// SegSetupResp travels the reverse path. Grants accumulate per AS on the
// forward pass; on success FinalKbps is the minimum and Tokens carries the
// Eq. (3) token of each AS, ordered like the path.
type SegSetupResp struct {
	Refusal   Refusal
	FailedAt  uint8 // path index of the refusing AS (when refused)
	FinalKbps uint64
	Tokens    [][packet.HVFLen]byte
}

// Marshal encodes the response into one allocation.
func (r *SegSetupResp) Marshal() []byte {
	b := segResp(r.Refusal, int(r.FailedAt), r.FinalKbps, len(r.Tokens))
	for i, tok := range r.Tokens {
		copy(b[segRespFixedLen+packet.HVFLen*i:], tok[:])
	}
	return b
}

// UnmarshalSegSetupResp parses a SegSetupResp.
func UnmarshalSegSetupResp(data []byte) (*SegSetupResp, error) { return decodeNew[SegSetupResp](data) }

func (r *SegSetupResp) unmarshal(data []byte) error {
	var v segRespView
	if err := v.load(data); err != nil {
		return err
	}
	r.Refusal, r.FailedAt, r.FinalKbps = v.refusal(), uint8(v.failedAt()), v.final()
	for i := range v.n {
		r.Tokens = append(r.Tokens, [packet.HVFLen]byte(v.token(i)))
	}
	return nil
}

// UnmarshalDownSegReq parses a DownSegReq.
func UnmarshalDownSegReq(data []byte) (*DownSegReq, error) { return decodeNew[DownSegReq](data) }

// AdjustSegR lowers a SegR's grant to the backward-pass minimum
// (admission.State.AdjustGrant), in the admitter and in the SegR's record.
func (c *CPlane) AdjustSegR(id reservation.ID, finalKbps uint64) error {
	return c.confirmSegR(id, finalKbps, false, nil)
}

// AbortSegR rolls a fresh setup back after a downstream failure, as the setup
// handler does: DropSegR.
func (c *CPlane) AbortSegR(id reservation.ID) { c.DropSegR(id) }

// refusalAt reports whether err is the initiator's refusal with code at hop.
func refusalAt(err error, code Refusal, hop int) bool {
	var r refusedAt
	return errors.As(err, &r) && r == refusedAt{code, hop}
}

// coverOf is chainView.cover over a chain's slices: the SegRs covering hop
// idx of a pathLen-hop chain, not ok unless they are one or two.
func coverOf(segIDs []reservation.ID, splits []uint8, pathLen, idx int) (c hopCover, ok bool) {
	var coverBuf [2]int
	covering := coveringSegs(coverBuf[:0], len(segIDs), splits, pathLen, idx)
	if len(covering) == 0 || len(covering) > 2 {
		return c, false
	}
	for _, k := range covering {
		c.ids[c.n] = segIDs[k]
		c.n++
	}
	return c, true
}

// liveOf counts the live items of a status vector.
func liveOf(status []Refusal) (live int) {
	for _, st := range status {
		if st == Granted {
			live++
		}
	}
	return live
}

// outcomesOf lays a response's grants and statuses out as they lie on the
// wire.
func outcomesOf(granted []uint64, status []Refusal) itemTail {
	t := make(itemTail, eeBatchTailLen*len(status))
	for i := range status {
		t.setGrant(i, granted[i])
		t.setStatus(i, status[i])
	}
	return t
}
