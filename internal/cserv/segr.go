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
// reservation is stored locally (with segment and tokens) and registered in
// the directory.
func (s *Service) SetupSegment(seg *segment.Segment, minKbps, maxKbps uint64) (*reservation.SegR, error) {
	if seg.SrcIA() != s.ia {
		return nil, fmt.Errorf("cserv: segment starts at %s, not at this AS %s", seg.SrcIA(), s.ia)
	}
	now := s.clock()
	req := &SegSetupReq{
		ID:      s.store.NextID(),
		SegType: seg.Type,
		Path:    HopsFromSegment(seg),
		MinKbps: minKbps,
		MaxKbps: maxKbps,
		ExpT:    now + reservation.SegRLifetimeSeconds,
		Ver:     1,
	}
	macs, err := s.computeMacs(req.Path, req.Body())
	if err != nil {
		return nil, err
	}
	req.Macs = macs
	resp := s.processSegSetup(req, 0, maxKbps)
	if !resp.OK {
		return nil, fmt.Errorf("%w: SegR setup failed at hop %d: %s", ErrRefused, resp.FailedAt, resp.Reason)
	}
	segr, err := s.store.GetSegR(req.ID)
	if err != nil {
		return nil, err
	}
	segr.Seg = seg
	segr.Tokens = resp.Tokens
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
	segr, err := s.store.GetSegR(id)
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
	macs, err := s.computeMacs(req.Path, req.Body())
	if err != nil {
		return 0, 0, err
	}
	req.Macs = macs
	resp := s.processSegSetup(req, 0, maxKbps)
	if !resp.OK {
		return 0, 0, fmt.Errorf("%w: SegR renewal failed at hop %d: %s", ErrRefused, resp.FailedAt, resp.Reason)
	}
	return newVer, resp.FinalKbps, nil
}

// ActivateSegment switches a locally initiated SegR to its pending version
// at every on-path AS.
func (s *Service) ActivateSegment(id reservation.ID, ver uint16) error {
	segr, err := s.store.GetSegR(id)
	if err != nil {
		return err
	}
	if segr.Seg == nil {
		return fmt.Errorf("cserv: SegR %s was not initiated here", id)
	}
	req := &SegActivateReq{ID: id, Ver: ver, Path: HopsFromSegment(segr.Seg)}
	macs, err := s.computeMacs(req.Path, req.Body())
	if err != nil {
		return err
	}
	req.Macs = macs
	resp := s.processSegActivate(req, 0)
	if !resp.OK {
		return fmt.Errorf("%w: activation failed at hop %d: %s", ErrRefused, resp.FailedAt, resp.Reason)
	}
	// Refresh the directory offer with the now-active bandwidth.
	if s.dir != nil {
		if cur, err := s.store.GetSegR(id); err == nil {
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
		kind := telemetry.EvSegSetup
		switch {
		case resp_.OK && req.Renewal:
			s.metrics.SegRenewOK.Add(1)
			kind = telemetry.EvSegRenew
		case resp_.OK:
			s.metrics.SegSetupOK.Add(1)
		case req.Renewal:
			s.metrics.SegRenewFail.Add(1)
			kind = telemetry.EvSegRenew
		default:
			s.metrics.SegSetupFail.Add(1)
		}
		s.metrics.TraceID(int64(s.clock())*1e9, kind, req.ID, resp_.OK, resp_.Reason)
	}()
	fail := func(format string, args ...any) *SegSetupResp {
		return &SegSetupResp{FailedAt: uint8(idx), Reason: fmt.Sprintf(format, args...)}
	}
	if idx > 0 { // the initiator trusts itself
		if err := s.verifySourceMac(req.ID.SrcAS, req.Body(), req.Macs, idx); err != nil {
			s.metrics.AuthFailures.Add(1)
			return fail("authentication: %v", err)
		}
		if !s.rate.Allow(req.ID.SrcAS, s.clock()) {
			s.metrics.RateLimited.Add(1)
			return fail("rate limited")
		}
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
	if existing, gerr := s.store.GetSegR(req.ID); gerr == nil {
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
		grant, err = s.cp.AddSegR(admReq)
	}
	if err != nil {
		s.metrics.AdmReject.Add(1)
		if req.Renewal {
			// RenewSegRWithUndo restored the pre-renewal snapshot: the flow
			// falls back to its still-active old version.
			s.metrics.AdmFallback.Add(1)
		}
		return fail("admission: %v", err)
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
			s.cp.AbortSegR(req.ID)
			s.store.DeleteSegR(req.ID)
		}
	}
	if grant < accum {
		accum = grant
	}
	if !req.Renewal && !dup {
		segr := &reservation.SegR{
			ID:      req.ID,
			SegType: req.SegType,
			In:      hop.In,
			Eg:      hop.Eg,
			MinKbps: req.MinKbps,
			Active:  reservation.Version{Ver: req.Ver, BwKbps: grant, ExpT: req.ExpT},
		}
		if err := s.store.AddSegR(segr); err != nil {
			s.cp.AbortSegR(req.ID)
			return fail("store: %v", err)
		}
	}

	var resp *SegSetupResp
	if idx == len(req.Path)-1 {
		resp = &SegSetupResp{
			OK:        true,
			FinalKbps: accum,
			Tokens:    make([][packet.HVFLen]byte, len(req.Path)),
		}
	} else {
		resp = s.forwardSegSetup(req, idx, accum)
	}
	if !resp.OK {
		rollback()
		return resp
	}

	// Response pass: fix the final grant locally and add our token.
	final := resp.FinalKbps
	if dupActive {
		// Version already activated by the original round; nothing to
		// re-record.
	} else if req.Renewal {
		if err := s.store.SetPending(req.ID, reservation.Version{Ver: req.Ver, BwKbps: final, ExpT: req.ExpT}); err != nil {
			rollback()
			return fail("pending: %v", err)
		}
	} else {
		if err := s.store.ConfirmSegR(req.ID, final); err != nil {
			rollback()
			return fail("confirm: %v", err)
		}
	}
	if err := s.cp.AdjustSegR(req.ID, final); err != nil {
		rollback()
		return fail("adjust: %v", err)
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

// forwardSegSetup sends the request to the next on-path CServ.
func (s *Service) forwardSegSetup(req *SegSetupReq, idx int, accum uint64) *SegSetupResp {
	next := req.Path[idx+1].IA
	fwd := *req
	fwd.AccumKbps = accum
	data, err := s.transport.Call(next, fwd.Marshal())
	if err != nil {
		return &SegSetupResp{FailedAt: uint8(idx + 1), Reason: fmt.Sprintf("transport: %v", err)}
	}
	resp, err := UnmarshalSegSetupResp(data)
	if err != nil {
		return &SegSetupResp{FailedAt: uint8(idx + 1), Reason: fmt.Sprintf("response: %v", err)}
	}
	if resp.OK && len(resp.Tokens) != len(req.Path) {
		// A grant without one token per hop: as bad as one that does not parse.
		return &SegSetupResp{FailedAt: uint8(idx + 1), Reason: "response: malformed"}
	}
	return resp
}

// processSegActivate handles an activation request at hop idx.
func (s *Service) processSegActivate(req *SegActivateReq, idx int) *SegSetupResp {
	fail := func(format string, args ...any) *SegSetupResp {
		return &SegSetupResp{FailedAt: uint8(idx), Reason: fmt.Sprintf(format, args...)}
	}
	if idx > 0 {
		if err := s.verifySourceMac(req.ID.SrcAS, req.Body(), req.Macs, idx); err != nil {
			return fail("authentication: %v", err)
		}
		if !s.rate.Allow(req.ID.SrcAS, s.clock()) {
			return fail("rate limited")
		}
	}
	segr, err := s.store.GetSegR(req.ID)
	if err != nil {
		return fail("lookup: %v", err)
	}
	if segr.Active.Ver == req.Ver {
		// Retried activation: this hop already switched, and because each
		// hop commits only after its downstream forward succeeded, every
		// hop after us is active too — answer OK without forwarding.
		s.metrics.DedupHits.Add(1)
		return &SegSetupResp{OK: true, FinalKbps: segr.Active.BwKbps}
	}
	if segr.Pending == nil || segr.Pending.Ver != req.Ver {
		return fail("no pending version %d", req.Ver)
	}
	// Refuse before forwarding if the switch would over-allocate locally, so
	// downstream ASes are never activated ahead of a doomed local switch. The
	// EER demand lives in the SegR's ledger (0 for a SegR the engine lost).
	allocated, _ := s.cp.SegDemandMax(req.ID)
	if segr.Pending.BwKbps < allocated {
		return fail("pending version %d (%d kbps) below allocated EER bandwidth (%d kbps)",
			req.Ver, segr.Pending.BwKbps, allocated)
	}
	if idx < len(req.Path)-1 {
		next := req.Path[idx+1].IA
		data, err := s.transport.Call(next, req.Marshal())
		if err != nil {
			return fail("transport: %v", err)
		}
		resp, err := UnmarshalSegSetupResp(data)
		if err != nil {
			return fail("response: %v", err)
		}
		if !resp.OK {
			return resp
		}
	}
	if err := s.store.ActivatePending(req.ID); err != nil {
		return fail("activate: %v", err)
	}
	s.metrics.SegActivate.Add(1)
	s.metrics.TraceID(int64(s.clock())*1e9, telemetry.EvSegActivate, req.ID, true, "")
	return &SegSetupResp{OK: true, FinalKbps: segr.Active.BwKbps}
}
