package cserv

import (
	"fmt"

	"colibri/internal/admission"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/telemetry"
)

// SetupSegment initiates a segment reservation over the given discovered
// segment (§3.3, Fig. 1a): the request chains through the on-path CServs,
// each performing the bounded-tube-fairness admission, and the response
// carries the final grant and the per-AS SegR tokens back. On success the
// local record keeps the segment and tokens too, and the reservation is
// registered in the directory.
func (s *Service) SetupSegment(seg *segment.Segment, minKbps, maxKbps uint64) (*reservation.SegR, error) {
	if seg.SrcIA() != s.ia {
		return nil, fmt.Errorf("cserv: segment starts at %s, not at this AS %s", seg.SrcIA(), s.ia)
	}
	now := s.clock()
	req := &SegSetupReq{
		ID:      s.nextID(),
		SegType: seg.Type,
		Path:    HopsFromSegment(seg),
		MinKbps: minKbps,
		MaxKbps: maxKbps,
		ExpT:    now + reservation.SegRLifetimeSeconds,
		Ver:     1,
	}
	if _, err := s.signPath(req.Path, req.Body(), &req.Macs); err != nil {
		return nil, err
	}
	resp := s.processSegSetup(req, 0, maxKbps)
	if err := resp.Refusal.at(int(resp.FailedAt)); err != nil {
		return nil, err
	}
	segr, err := s.cp.initiated(req.ID, seg, resp.Tokens)
	if err != nil {
		return nil, err
	}
	if s.dir != nil {
		s.dir.Register(&Offer{
			ID:   req.ID,
			Seg:  seg,
			Bw:   resp.FinalKbps,
			ExpT: req.ExpT,
		})
	}
	return segr, nil
}

// RenewSegment renews an existing locally initiated SegR: the new version
// becomes pending at every on-path AS and must be activated explicitly with
// ActivateSegment (§4.2).
func (s *Service) RenewSegment(id reservation.ID, minKbps, maxKbps uint64) (uint16, uint64, error) {
	segr, err := s.cp.GetSegR(id)
	if err != nil {
		return 0, 0, err
	}
	if segr.Seg == nil {
		return 0, 0, fmt.Errorf("cserv: SegR %s was not initiated here", id)
	}
	now := s.clock()
	newVer := segr.Active.Ver + 1
	if segr.Pending != nil && segr.Pending.Ver >= newVer {
		newVer = segr.Pending.Ver + 1
	}
	req := &SegSetupReq{
		ID:      id,
		SegType: segr.SegType,
		Path:    HopsFromSegment(segr.Seg),
		MinKbps: minKbps,
		MaxKbps: maxKbps,
		ExpT:    now + reservation.SegRLifetimeSeconds,
		Ver:     newVer,
		Renewal: true,
	}
	if _, err := s.signPath(req.Path, req.Body(), &req.Macs); err != nil {
		return 0, 0, err
	}
	resp := s.processSegSetup(req, 0, maxKbps)
	if err := resp.Refusal.at(int(resp.FailedAt)); err != nil {
		return 0, 0, err
	}
	return newVer, resp.FinalKbps, nil
}

// ActivateSegment switches a locally initiated SegR to its pending version
// at every on-path AS.
func (s *Service) ActivateSegment(id reservation.ID, ver uint16) error {
	segr, err := s.cp.GetSegR(id)
	if err != nil {
		return err
	}
	if segr.Seg == nil {
		return fmt.Errorf("cserv: SegR %s was not initiated here", id)
	}
	req := &SegActivateReq{ID: id, Ver: ver, Path: HopsFromSegment(segr.Seg)}
	if _, err := s.signPath(req.Path, req.Body(), &req.Macs); err != nil {
		return err
	}
	resp := s.processSegActivate(req, 0)
	if err := resp.Refusal.at(int(resp.FailedAt)); err != nil {
		return err
	}
	// Refresh the directory offer with the now-active bandwidth.
	if s.dir != nil {
		if cur, err := s.cp.GetSegR(id); err == nil {
			s.dir.Register(&Offer{ID: id, Seg: segr.Seg, Bw: cur.Active.BwKbps, ExpT: cur.Active.ExpT})
		}
	}
	return nil
}

// processSegSetup handles a setup/renewal request at hop idx: verify, rate
// limit, admit, forward, and on the unwinding response pass confirm (and
// compute the Eq. 3 token) or roll back.
func (s *Service) processSegSetup(req *SegSetupReq, idx int, accum uint64) (resp_ *SegSetupResp) {
	defer func() {
		m, now := &s.metrics, int64(s.clock())*1e9
		if req.Renewal {
			m.outcome(now, telemetry.EvSegRenew, req.ID, resp_.Refusal, m.SegRenewOK, m.SegRenewFail)
		} else {
			m.outcome(now, telemetry.EvSegSetup, req.ID, resp_.Refusal, m.SegSetupOK, m.SegSetupFail)
		}
	}()
	if _, code := s.authHop(req.ID.SrcAS, req.wire[:req.bodyLen], macOf(req.Macs, idx), idx); code != Granted {
		return &SegSetupResp{Refusal: code, FailedAt: uint8(idx)}
	}
	hop := req.Path[idx]
	admReq := admission.Request{
		ID:      req.ID,
		Src:     req.ID.SrcAS,
		In:      hop.In,
		Eg:      hop.Eg,
		MinKbps: req.MinKbps,
		MaxKbps: req.MaxKbps,
	}

	// Idempotent retry detection: a lost response leaves every hop
	// downstream of the loss committed, so a retried request (same ID and
	// Ver — the idempotency key — with the same expiry) finds its own
	// state here. Answer from that state instead of admitting again:
	// re-running admission on a retry would double-count the reservation.
	// dupActive additionally marks a renewal whose version was already
	// activated (response of the activation round lost), where re-creating
	// a pending version would regress the switch.
	var dup, dupActive bool
	var grant uint64
	if existing, gerr := s.cp.GetSegR(req.ID); gerr == nil {
		switch {
		case req.Renewal && existing.Pending != nil && existing.Pending.Ver == req.Ver && existing.Pending.ExpT == req.ExpT:
			dup, grant = true, existing.Pending.BwKbps
		case req.Renewal && existing.Active.Ver == req.Ver && existing.Active.ExpT == req.ExpT:
			dup, dupActive, grant = true, true, existing.Active.BwKbps
		case !req.Renewal && existing.Active.Ver == req.Ver && existing.Active.ExpT == req.ExpT:
			dup, grant = true, existing.Active.BwKbps
		}
	}
	var undoRenew func()
	var err error
	if dup {
		s.metrics.DedupHits.Add(1)
	} else if req.Renewal {
		grant, undoRenew, err = s.cp.RenewSegRWithUndo(admReq)
	} else {
		grant, err = s.cp.setupSegR(admReq, req.SegType, reservation.Version{Ver: req.Ver, ExpT: req.ExpT}, true)
	}
	if err != nil {
		s.metrics.AdmReject.Add(1)
		if req.Renewal {
			// RenewSegRWithUndo restored the pre-renewal snapshot: the flow
			// falls back to its still-active old version.
			s.metrics.AdmFallback.Add(1)
		}
		return &SegSetupResp{Refusal: refusalOf(err), FailedAt: uint8(idx)}
	}
	rollback := func() {
		if dup {
			// Retried request over committed state: keep it; the original
			// round owns its lifecycle.
			return
		}
		if req.Renewal {
			if undoRenew != nil {
				undoRenew()
			}
		} else {
			// A fresh SegR goes with its ledger; a renewal must not, or its
			// admitted EER charges would go too.
			s.cp.DropSegR(req.ID)
		}
	}
	if grant < accum {
		accum = grant
	}

	var resp *SegSetupResp
	if idx == len(req.Path)-1 {
		resp = &SegSetupResp{
			FinalKbps: accum,
			Tokens:    make([][packet.HVFLen]byte, len(req.Path)),
		}
	} else {
		resp = s.forwardSegSetup(req, idx, accum)
	}
	if resp.Refusal != Granted {
		rollback()
		return resp
	}

	// Response pass: fix the final grant locally — as the active version of
	// a setup, as the pending one of a renewal, or alone for a renewal whose
	// version the original round already activated — and add our token.
	final := resp.FinalKbps
	var pending *reservation.Version
	if req.Renewal && !dupActive {
		pending = &reservation.Version{Ver: req.Ver, BwKbps: final, ExpT: req.ExpT}
	}
	if err := s.cp.confirmSegR(req.ID, final, !req.Renewal, pending); err != nil {
		rollback()
		return &SegSetupResp{Refusal: refusalOf(err), FailedAt: uint8(idx)}
	}
	res := &packet.ResInfo{
		SrcAS:  req.ID.SrcAS,
		ResID:  req.ID.Num,
		BwKbps: uint32(final),
		ExpT:   req.ExpT,
		Ver:    req.Ver,
	}
	resp.Tokens[idx] = s.segToken(res, packet.HopField{In: hop.In, Eg: hop.Eg})
	return resp
}

// forwardSegSetup sends the request to the next on-path CServ. A grant without
// one token per hop is as bad as one that does not parse.
func (s *Service) forwardSegSetup(req *SegSetupReq, idx int, accum uint64) *SegSetupResp {
	fwd := *req
	fwd.AccumKbps = accum
	resp := &SegSetupResp{}
	_, code := s.forward(req.Path[idx+1].IA, fwd.Marshal(), resp.unmarshal)
	if code == Granted && resp.Refusal == Granted && len(resp.Tokens) != len(req.Path) {
		code = RefusedBadAnswer
	}
	if code != Granted {
		return &SegSetupResp{Refusal: code, FailedAt: uint8(idx + 1)}
	}
	return resp
}

// processSegActivate handles an activation request at hop idx. What decides
// before anything is forwarded is read under the SegR's lock, with no copy of
// its record: a retry of the active version is answered at once, and one that
// names no pending version, or a pending one below the EER demand the SegR
// carries, is refused here, so that downstream ASes are never activated
// ahead of a doomed local switch.
func (s *Service) processSegActivate(req *SegActivateReq, idx int) SegSetupResp {
	if _, code := s.authHop(req.ID.SrcAS, req.wire[:req.bodyLen], macOf(req.Macs, idx), idx); code != Granted {
		return SegSetupResp{Refusal: code, FailedAt: uint8(idx)}
	}
	retry, activeKbps, err := s.cp.checkActivation(req.ID, req.Ver)
	switch {
	case err != nil:
		return SegSetupResp{Refusal: refusalOf(err), FailedAt: uint8(idx)}
	case retry:
		// Retried activation: this hop already switched, and because each
		// hop commits only after its downstream forward succeeded, every
		// hop after us is active too — answer OK without forwarding.
		s.metrics.DedupHits.Add(1)
		return SegSetupResp{FinalKbps: activeKbps}
	}
	if idx < len(req.Path)-1 {
		var resp SegSetupResp
		if _, code := s.forward(req.Path[idx+1].IA, req.Marshal(), resp.unmarshal); code != Granted {
			return SegSetupResp{Refusal: code, FailedAt: uint8(idx + 1)}
		}
		if resp.Refusal != Granted {
			return resp
		}
	}
	active, err := s.cp.activateSegR(req.ID)
	if err != nil {
		return SegSetupResp{Refusal: refusalOf(err), FailedAt: uint8(idx)}
	}
	s.metrics.SegActivate.Add(1)
	s.metrics.TraceID(int64(s.clock())*1e9, telemetry.EvSegActivate, req.ID, true, "")
	return SegSetupResp{FinalKbps: active.BwKbps}
}
