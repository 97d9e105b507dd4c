package cserv

import (
	"encoding/binary"
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
	req := SegSetupReq{ID: s.nextID(), SegType: seg.Type, Path: HopsFromSegment(seg), MinKbps: minKbps, MaxKbps: maxKbps,
		ExpT: s.clock() + reservation.SegRLifetimeSeconds, Ver: 1}
	resp, err := s.launchSeg(req.appendBody, req.Path, maxKbps)
	if err != nil {
		return nil, err
	}
	tokens := make([][packet.HVFLen]byte, resp.n)
	for i := range tokens {
		tokens[i] = [packet.HVFLen]byte(resp.token(i))
	}
	segr, err := s.cp.initiated(req.ID, seg, tokens)
	if err != nil {
		return nil, err
	}
	if s.dir != nil {
		s.dir.Register(&Offer{ID: req.ID, Seg: seg, Bw: resp.final(), ExpT: req.ExpT})
	}
	return segr, nil
}

// RenewSegment renews an existing locally initiated SegR: the new version
// becomes pending at every on-path AS and must be activated explicitly with
// ActivateSegment (§4.2).
func (s *Service) RenewSegment(id reservation.ID, minKbps, maxKbps uint64) (uint16, uint64, error) {
	seg, ver, _, err := s.cp.origin(id)
	if err != nil {
		return 0, 0, err
	}
	req := SegSetupReq{ID: id, SegType: seg.Type, Path: HopsFromSegment(seg), MinKbps: minKbps, MaxKbps: maxKbps,
		ExpT: s.clock() + reservation.SegRLifetimeSeconds, Ver: ver, Renewal: true}
	resp, err := s.launchSeg(req.appendBody, req.Path, maxKbps)
	if err != nil {
		return 0, 0, err
	}
	return ver, resp.final(), nil
}

// ActivateSegment switches a locally initiated SegR to its pending version
// at every on-path AS.
func (s *Service) ActivateSegment(id reservation.ID, ver uint16) error {
	seg, _, _, err := s.cp.origin(id)
	if err != nil {
		return err
	}
	req := SegActivateReq{ID: id, Ver: ver, Path: HopsFromSegment(seg)}
	if _, err := s.launchSeg(req.appendBody, req.Path, 0); err != nil {
		return err
	}
	// Refresh the directory offer with the now-active bandwidth.
	if s.dir != nil {
		if _, _, active, err := s.cp.origin(id); err == nil {
			s.dir.Register(&Offer{ID: id, Seg: seg, Bw: active.BwKbps, ExpT: active.ExpT})
		}
	}
	return nil
}

// launchSeg runs a SegR request from hop 0, the initiator's: it encodes the
// request's body with appendBody into the scratch, signs it towards every AS
// of path, appends the MACs and, to a setup or renewal, the accumulator accum,
// and hands the bytes to hop 0, which decodes them as every other hop does. It
// returns hop 0's answer, or the initiator's error for a refusal and its hop.
func (s *Service) launchSeg(appendBody func([]byte) []byte, path []PathHop, accum uint64) (resp segRespView, err error) {
	sc := s.getWave()
	defer s.putWave(sc)
	body := appendBody(sc.fwd[:0])
	if _, err = s.signPath(path, body, &sc.seg.Macs); err != nil {
		return resp, err
	}
	sc.fwd = appendMacs(body, sc.seg.Macs)
	var out []byte
	if body[0] == tagSegActivate {
		if err = sc.act.unmarshal(sc.fwd); err == nil {
			out = s.processSegActivate(&sc.act, 0)
		}
	} else {
		sc.fwd = binary.BigEndian.AppendUint64(sc.fwd, accum)
		if err = sc.seg.unmarshal(sc.fwd); err == nil {
			out = s.processSegSetup(sc, 0, accum)
		}
	}
	if err == nil {
		if err = resp.load(out); err == nil {
			err = resp.refusal().at(resp.failedAt())
		}
	}
	return resp, err
}

// processSegSetup handles the SegR setup or renewal request in sc.seg, decoded
// from sc.fwd, at hop idx and returns the marshaled response, whose first byte
// is its refusal. The hop admits (CPlane.admitSeg) and forwards sc.fwd with
// its grant written in; it confirms or rolls back (CPlane.settleSeg) and
// writes its Eq. (3) token into its own slot of the answer, one buffer from
// the last hop, which allocates it at its final size, to the initiator.
func (s *Service) processSegSetup(sc *waveScratch, idx int, accum uint64) (out []byte) {
	req := &sc.seg
	defer func() {
		m, now := &s.metrics, int64(s.clock())*1e9
		if req.Renewal {
			m.outcome(now, telemetry.EvSegRenew, req.ID, Refusal(out[0]), m.SegRenewOK, m.SegRenewFail)
		} else {
			m.outcome(now, telemetry.EvSegSetup, req.ID, Refusal(out[0]), m.SegSetupOK, m.SegSetupFail)
		}
	}()
	if _, code := s.authHop(req.ID.SrcAS, req.wire[:req.bodyLen], macOf(req.Macs, idx), idx); code != Granted {
		return refuseSeg(idx, code)
	}
	// A version lives one SegR lifetime from its request (§4.2): an initiator
	// asks for no more.
	if req.ExpT > s.clock()+reservation.SegRLifetimeSeconds {
		return refuseSeg(idx, RefusedMalformed)
	}
	hop := req.Path[idx]
	leg := segLeg{
		req: admission.Request{ID: req.ID, Src: req.ID.SrcAS, In: hop.In, Eg: hop.Eg,
			MinKbps: req.MinKbps, MaxKbps: req.MaxKbps},
		segType: req.SegType, v: reservation.Version{Ver: req.Ver, ExpT: req.ExpT}, renewal: req.Renewal, dedup: true,
	}
	if err := s.cp.admitSeg(&leg); err != nil {
		s.metrics.AdmReject.Add(1)
		if req.Renewal {
			// The admitter kept the SegR's snapshot: the flow falls back to
			// its still-active old version.
			s.metrics.AdmFallback.Add(1)
		}
		return refuseSeg(idx, refusalOf(err))
	}
	if leg.retry {
		s.metrics.DedupHits.Add(1)
	}
	accum = min(accum, leg.grant)
	n := len(req.Path)
	var resp segRespView
	if idx == n-1 {
		// The answer at its final size: granted, n token slots still empty.
		out = segResp(Granted, 0, accum, n)
		resp.msg, resp.n = out, n
	} else {
		// Forward the bytes received, accumulator overwritten in this hop's
		// copy. A grant without one token per hop is as bad as one that does
		// not parse.
		binary.BigEndian.PutUint64(req.wire[len(req.wire)-8:], accum)
		var code Refusal
		out, code = s.forward(req.Path[idx+1].IA, req.wire, resp.load)
		if code == Granted && resp.refusal() == Granted && resp.n != n {
			code = RefusedBadAnswer
		}
		if code != Granted || resp.refusal() != Granted {
			_ = s.cp.settleSeg(&leg, 0, false)
			if code != Granted {
				return refuseSeg(idx+1, code)
			}
			return out
		}
	}
	final := resp.final()
	if err := s.cp.settleSeg(&leg, final, true); err != nil {
		return refuseSeg(idx, refusalOf(err))
	}
	res := packet.ResInfo{SrcAS: req.ID.SrcAS, ResID: req.ID.Num, BwKbps: uint32(final), ExpT: req.ExpT, Ver: req.Ver}
	tok := s.segToken(&res, packet.HopField{In: hop.In, Eg: hop.Eg})
	copy(resp.token(idx), tok[:])
	return out
}

// processSegActivate handles an activation request at hop idx and returns the
// marshaled response. What decides before anything is forwarded is read under
// the SegR's lock, with no copy of its record: a retry of the active version
// is answered at once, and one that names no pending version, or a pending one
// below the EER demand the SegR carries, is refused here, so that downstream
// ASes are never activated ahead of a doomed local switch. The hop forwards
// the bytes it verified.
func (s *Service) processSegActivate(req *SegActivateReq, idx int) []byte {
	if _, code := s.authHop(req.ID.SrcAS, req.wire[:req.bodyLen], macOf(req.Macs, idx), idx); code != Granted {
		return refuseSeg(idx, code)
	}
	retry, activeKbps, err := s.cp.checkActivation(req.ID, req.Ver)
	switch {
	case err != nil:
		return refuseSeg(idx, refusalOf(err))
	case retry:
		// Retried activation: this hop already switched, and because each
		// hop commits only after its downstream forward succeeded, every
		// hop after us is active too — answer OK without forwarding.
		s.metrics.DedupHits.Add(1)
		return segResp(Granted, 0, activeKbps, 0)
	}
	if idx < len(req.Path)-1 {
		var resp segRespView
		out, code := s.forward(req.Path[idx+1].IA, req.wire, resp.load)
		if code != Granted {
			return refuseSeg(idx+1, code)
		}
		if resp.refusal() != Granted {
			return out
		}
	}
	active, err := s.cp.activateSegR(req.ID)
	if err != nil {
		return refuseSeg(idx, refusalOf(err))
	}
	s.metrics.SegActivate.Add(1)
	s.metrics.TraceID(int64(s.clock())*1e9, telemetry.EvSegActivate, req.ID, true, "")
	return segResp(Granted, 0, active.BwKbps, 0)
}
