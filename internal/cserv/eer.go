package cserv

import (
	"fmt"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// EERGrant is the result of a successful EER setup or renewal, ready to be
// installed at the Colibri gateway. PathHops and Splits retain the request
// parameters so renewals can be issued over the same reservation.
type EERGrant struct {
	ID       reservation.ID
	Res      packet.ResInfo
	EER      packet.EERInfo
	Path     []packet.HopField
	PathHops []PathHop
	Splits   []uint8
	HopAuths []cryptoutil.Key
	SegIDs   []reservation.ID
}

// RequestEER performs a complete EER setup on behalf of a local end host
// (§3.3, Fig. 1b): pick joinable SegRs to the destination AS from the
// directory, chain the request through the on-path CServs, collect and
// decrypt the hop authenticators. Chains are tried in order until one
// admits the reservation — the path choice of §2.1.
func (s *Service) RequestEER(srcHost, dstHost uint32, dstIA topology.IA, bwKbps uint64) (*EERGrant, error) {
	chains, err := s.SegRsTo(dstIA)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for _, chain := range chains {
		grant, err := s.requestEEROverChain(srcHost, dstHost, bwKbps, chain)
		if err == nil {
			return grant, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cserv: no segment reservations towards %s", dstIA)
	}
	return nil, lastErr
}

func (s *Service) requestEEROverChain(srcHost, dstHost uint32, bwKbps uint64, chain []*Offer) (*EERGrant, error) {
	segs := make([]*segment.Segment, len(chain))
	segIDs := make([]reservation.ID, len(chain))
	for i, off := range chain {
		segs[i] = off.Seg
		segIDs[i] = off.ID
	}
	path, err := segment.Join(segs...)
	if err != nil {
		return nil, err
	}
	// Transfer-AS positions: cumulative segment ends.
	splits := make([]uint8, 0, len(segs)-1)
	pos := 0
	for i := 0; i < len(segs)-1; i++ {
		pos += segs[i].Len() - 1
		splits = append(splits, uint8(pos))
	}
	now := s.clock()
	req := &EESetupReq{
		ID:      s.store.NextID(),
		SegIDs:  segIDs,
		Splits:  splits,
		Path:    HopsFromPath(path),
		BwKbps:  bwKbps,
		ExpT:    now + reservation.EERLifetimeSeconds,
		Ver:     1,
		SrcHost: srcHost,
		DstHost: dstHost,
	}
	return s.launchEE(req)
}

// RenewEER renews an existing EER for a new version with possibly different
// bandwidth. Multiple versions remain valid concurrently, enabling seamless
// transition (§4.2).
func (s *Service) RenewEER(prev *EERGrant, newBwKbps uint64) (*EERGrant, error) {
	now := s.clock()
	req := &EESetupReq{
		ID:      prev.ID,
		SegIDs:  prev.SegIDs,
		Splits:  prev.Splits,
		Path:    prev.PathHops,
		BwKbps:  newBwKbps,
		ExpT:    now + reservation.EERLifetimeSeconds,
		Ver:     prev.Res.Ver + 1,
		SrcHost: prev.EER.SrcHost,
		DstHost: prev.EER.DstHost,
		Renewal: true,
	}
	return s.launchEE(req)
}

// launchEE signs and runs an EE request from hop 0.
func (s *Service) launchEE(req *EESetupReq) (*EERGrant, error) {
	macs, err := s.computeMacs(req.Path, req.Body())
	if err != nil {
		return nil, err
	}
	req.Macs = macs
	resp := s.processEESetup(req, 0, req.BwKbps)
	if !resp.OK {
		return nil, fmt.Errorf("%w: EER setup failed at hop %d: %s", ErrRefused, resp.FailedAt, resp.Reason)
	}
	grant := &EERGrant{
		ID: req.ID,
		Res: packet.ResInfo{
			SrcAS:  req.ID.SrcAS,
			ResID:  req.ID.Num,
			BwKbps: uint32(resp.FinalKbps),
			ExpT:   req.ExpT,
			Ver:    req.Ver,
		},
		EER:      packet.EERInfo{SrcHost: req.SrcHost, DstHost: req.DstHost},
		Path:     HopFields(req.Path),
		PathHops: append([]PathHop(nil), req.Path...),
		Splits:   append([]uint8(nil), req.Splits...),
		SegIDs:   append([]reservation.ID(nil), req.SegIDs...),
	}
	// Decrypt the hop authenticators (Eq. 5): AS_i sealed σ_i under
	// K_{AS_i→us}, which we hold in the key store.
	now := s.clock()
	grant.HopAuths = make([]cryptoutil.Key, len(req.Path))
	for i, enc := range resp.EncAuths {
		key, err := s.hopKey(req.Path[i].IA, now)
		if err != nil {
			return nil, err
		}
		if err := openHopAuth(s.cryptoFor(key).sealer, &grant.HopAuths[i], enc, eerAuthAD(nil, req.ID, uint8(i))); err != nil {
			return nil, fmt.Errorf("cserv: opening hop authenticator %d: %w", i, err)
		}
	}
	return grant, nil
}

// sealedAuthLen is the size of a sealed hop authenticator (Eq. 5).
const sealedAuthLen = cryptoutil.KeySize + cryptoutil.SealOverhead

// openHopAuth decrypts one sealed hop authenticator straight into auth, which
// owns its bytes: a grant retains nothing of the response buffer.
func openHopAuth(sl *cryptoutil.Sealer, auth *cryptoutil.Key, sealed, ad []byte) error {
	if len(sealed) != sealedAuthLen {
		return fmt.Errorf("%w: %d bytes, want %d", cryptoutil.ErrAEADOpen, len(sealed), sealedAuthLen)
	}
	_, err := sl.OpenTo(auth[:0], sealed, ad)
	return err
}

// eerAuthAD appends the associated data binding an encrypted hop
// authenticator to its reservation and hop.
func eerAuthAD(b []byte, id reservation.ID, hop uint8) []byte {
	return append(appendID(b, id), hop)
}

// segsCovering returns the indices into req.SegIDs of the segment
// reservations this hop participates in (one normally, two at transfer
// ASes).
func segsCovering(req *EESetupReq, idx int) []int {
	return coveringSegs(len(req.SegIDs), req.Splits, len(req.Path), idx)
}

// coveringSegs is the chain-geometry core of segsCovering, shared with the
// batch-renewal handler (whose items all ride the same SegR chain).
func coveringSegs(nSeg int, splits []uint8, pathLen, idx int) []int {
	if nSeg == 1 {
		return []int{0}
	}
	start := 0
	var covering []int
	for k := 0; k < nSeg; k++ {
		end := pathLen - 1
		if k < len(splits) {
			end = int(splits[k])
		}
		if idx >= start && idx <= end {
			covering = append(covering, k)
		}
		start = end
	}
	return covering
}

// processEESetup handles an EER setup/renewal request at hop idx.
func (s *Service) processEESetup(req *EESetupReq, idx int, accum uint64) (resp_ *EESetupResp) {
	defer func() {
		kind := telemetry.EvEESetup
		switch {
		case resp_.OK && req.Renewal:
			s.metrics.EERenewOK.Add(1)
			kind = telemetry.EvEERenew
		case resp_.OK:
			s.metrics.EESetupOK.Add(1)
		case req.Renewal:
			s.metrics.EERenewFail.Add(1)
			kind = telemetry.EvEERenew
		default:
			s.metrics.EESetupFail.Add(1)
		}
		s.metrics.Trace(int64(s.clock())*1e9, kind, req.ID.String(), resp_.OK, resp_.Reason)
	}()
	fail := func(format string, args ...any) *EESetupResp {
		return &EESetupResp{FailedAt: uint8(idx), Reason: fmt.Sprintf(format, args...)}
	}
	if idx > 0 {
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
	now := s.clock()
	// The covering SegRs decide where this AS's admission state lives: one
	// segment normally, two at a transfer AS (§4.7). The CPlane keys its EER
	// record by the primary (first local) covering segment, so the dedup
	// below needs it before any store lookup.
	covering := segsCovering(req, idx)
	if len(covering) == 0 {
		return fail("hop %d is not covered by any segment reservation", idx)
	}
	// Idempotent retry detection (idempotency key: (ID, Ver) with matching
	// expiry): a lost response leaves every hop downstream of the loss
	// committed, so a retried request finds its own version here. Answer
	// from it instead of admitting again — and decide before the renewal
	// rate limiter, which must not throttle the retry of the very renewal
	// it just admitted.
	var dup bool
	var dupKbps uint64
	if s.cp != nil {
		if bw, ver, expT, ok := s.cp.LookupEER(req.ID, req.SegIDs[covering[0]]); ok && ver == req.Ver && expT == req.ExpT {
			dup, dupKbps = true, bw
		}
	} else if existing, gerr := s.store.GetEER(req.ID); gerr == nil {
		for _, v := range existing.Versions {
			if v.Ver == req.Ver && v.ExpT == req.ExpT {
				dup, dupKbps = true, v.BwKbps
				break
			}
		}
	}
	if dup {
		s.metrics.DedupHits.Add(1)
	}
	// Per-EER renewal rate limiting (§4.2: e.g. one renewal per second).
	if req.Renewal && !dup && !s.renewLim.Allow(req.ID, now) {
		s.metrics.RenewThrottle.Add(1)
		return fail("renewal rate limit: EER %s already renewed this second", req.ID)
	}

	// Source-AS policy (§4.7: "the source AS has a direct business
	// relationship with the end host").
	if idx == 0 {
		if err := s.policy.AllowEER(req.SrcHost, req.BwKbps); err != nil {
			return fail("policy: %v", err)
		}
	}
	// Destination approval (§3.3: the destination host "also has to
	// explicitly accept the EER request").
	if idx == len(req.Path)-1 && !s.dstApprove(req) {
		return fail("destination refused")
	}

	localSegIDs := make([]reservation.ID, 0, 2)
	segRs := make([]*reservation.SegR, 0, 2)
	for _, k := range covering {
		sr, err := s.store.GetSegR(req.SegIDs[k])
		if err != nil {
			return fail("segment reservation: %v", err)
		}
		localSegIDs = append(localSegIDs, sr.ID)
		segRs = append(segRs, sr)
	}

	// prev* capture the live record this request replaces: the transfer split
	// credits it as freed headroom and returns its charge once the new version
	// commits, and a downstream failure reinstates it (the CPlane holds one
	// version per EER; the store's rollback instead removes the added version
	// from the list). Store.LiveVersion mirrors CPlane.LookupEER so both
	// admission modes account identically.
	var prevBw uint64
	var prevExpT uint32
	var prevVer uint16
	var hadPrev bool
	if !dup {
		if s.cp != nil {
			prevBw, prevVer, prevExpT, hadPrev = s.cp.LookupEER(req.ID, localSegIDs[0])
		} else {
			prevBw, prevVer, prevExpT, hadPrev = s.store.LiveVersion(req.ID, now)
		}
	}

	// Transfer-AS proportional split between up- and core-SegR (§4.7). The
	// split accumulates demand/grant per Admit; every exit path below must
	// return exactly what it no longer claims — refusal, admission failure,
	// downstream rollback, and the final clamp to the path-wide minimum —
	// so the split tracks precisely the live committed charges (dead demand
	// otherwise accumulates until the fair-share cap refuses everything;
	// the renewal-storm recovery at 10⁶ flows found every one of these).
	grant := accum
	if dup {
		grant = dupKbps
	}
	var tAdmitted bool
	var tCapped, tGrant uint64
	var tUp, tCore reservation.ID
	if !dup && len(segRs) == 2 && segRs[0].SegType == segment.Up && segRs[1].SegType == segment.Core {
		up, core := segRs[0], segRs[1]
		upAvail, coreAvail := up.AvailableEERKbps(), core.AvailableEERKbps()
		if s.cp != nil {
			upAvail = s.cp.SegAvail(up.ID, now, req.ExpT)
			coreAvail = s.cp.SegAvail(core.ID, now, req.ExpT)
		}
		if req.Renewal && hadPrev && prevExpT > now {
			// The ledger (or store) still carries this EER's own live charge,
			// which the renewal replaces — RenewEERPath removes it before
			// probing, and the store's versions share one max-over-versions
			// budget. Credit it so the split sees the true post-renewal
			// headroom, identically in both admission modes.
			upAvail += prevBw
			coreAvail += prevBw
		}
		asked := grant
		grant = s.transfer.Admit(core.ID, up.ID, asked,
			up.Active.BwKbps, core.Active.BwKbps,
			upAvail, coreAvail)
		tCapped = asked
		if tCapped > up.Active.BwKbps {
			tCapped = up.Active.BwKbps
		}
		// A *setup* is granted in full or refused (§4.7: "the intended
		// bandwidth is granted if there is sufficient available bandwidth");
		// only renewals may be granted a reduced amount (§4.2).
		if grant == 0 || (!req.Renewal && grant < asked) {
			s.transfer.Release(core.ID, up.ID, tCapped, grant)
			s.metrics.AdmReject.Add(1)
			if req.Renewal {
				// The EER's previous versions stay valid: the flow falls
				// back to them instead of being torn down.
				s.metrics.AdmFallback.Add(1)
			}
			return fail("transfer split: only %d of %d kbps available on core SegR %s",
				grant, asked, core.ID)
		}
		tAdmitted, tGrant, tUp, tCore = true, grant, up.ID, core.ID
	}
	// releaseT undoes the split admission in full — for every path on which
	// this hop's new version does not survive.
	releaseT := func() {
		if tAdmitted {
			s.transfer.Release(tCore, tUp, tCapped, tGrant)
			tAdmitted = false
		}
	}

	// Admit (reserve) the requested bandwidth against the local SegRs; the
	// backward pass adjusts it down to the path-wide minimum.
	eer := &reservation.EER{
		ID:      req.ID,
		In:      hop.In,
		Eg:      hop.Eg,
		SrcHost: req.SrcHost,
		DstHost: req.DstHost,
	}
	v := reservation.Version{Ver: req.Ver, BwKbps: grant, ExpT: req.ExpT}
	if !dup {
		if s.cp != nil {
			var aerr error
			if req.Renewal && hadPrev {
				var g uint64
				if g, aerr = s.cp.RenewEERPath(req.ID, localSegIDs, grant, req.ExpT, req.Ver); aerr == nil {
					// Renewals may legally shrink to the free bandwidth (§4.2).
					grant = g
				}
			} else {
				// A fresh setup — or a renewal of an EER this AS no longer
				// holds (version expired, or state lost in a crash): admit it
				// anew so the flow re-promotes instead of staying demoted.
				aerr = s.cp.SetupEERPath(req.ID, localSegIDs, grant, req.ExpT, req.Ver)
			}
			if aerr != nil {
				releaseT()
				s.metrics.AdmReject.Add(1)
				if req.Renewal {
					s.metrics.AdmFallback.Add(1)
				}
				return fail("admission: %v", aerr)
			}
		} else {
			if err := s.store.AdmitEERVersion(eer, localSegIDs, v, now); err != nil {
				releaseT()
				s.metrics.AdmReject.Add(1)
				if req.Renewal {
					s.metrics.AdmFallback.Add(1)
				}
				return fail("admission: %v", err)
			}
		}
	}
	rollback := func() {
		if dup {
			// Retried request over committed state: the original round
			// owns this version's lifecycle.
			return
		}
		releaseT()
		if s.cp != nil {
			if req.Renewal && hadPrev {
				s.cp.RestoreEERPath(req.ID, localSegIDs, prevBw, prevExpT, prevVer)
			} else {
				s.cp.TeardownEERPath(req.ID, localSegIDs)
			}
			return
		}
		_ = s.store.RemoveEERVersion(req.ID, req.Ver)
	}

	var resp *EESetupResp
	if idx == len(req.Path)-1 {
		resp = &EESetupResp{
			OK:        true,
			FinalKbps: grant,
			EncAuths:  make([][]byte, len(req.Path)),
		}
	} else {
		next := req.Path[idx+1].IA
		fwd := *req
		fwd.AccumKbps = grant
		data, err := s.transport.Call(next, fwd.Marshal())
		if err != nil {
			resp = &EESetupResp{FailedAt: uint8(idx + 1), Reason: fmt.Sprintf("transport: %v", err)}
		} else if resp, err = UnmarshalEESetupResp(data); err != nil {
			resp = &EESetupResp{FailedAt: uint8(idx + 1), Reason: fmt.Sprintf("response: %v", err)}
		}
	}
	if !resp.OK {
		rollback()
		return resp
	}

	final := resp.FinalKbps
	if final < grant {
		if s.cp != nil {
			s.cp.AdjustEERPath(req.ID, localSegIDs, final)
		} else if err := s.store.AdjustEERVersion(req.ID, req.Ver, final); err != nil {
			rollback()
			return fail("adjust: %v", err)
		}
	}
	// Compute σ_i (Eq. 4) over the final reservation parameters and seal it
	// for the source AS (Eq. 5).
	res := &packet.ResInfo{
		SrcAS:  req.ID.SrcAS,
		ResID:  req.ID.Num,
		BwKbps: uint32(final),
		ExpT:   req.ExpT,
		Ver:    req.Ver,
	}
	eerInfo := &packet.EERInfo{SrcHost: req.SrcHost, DstHost: req.DstHost}
	sigma := s.hopAuth(res, eerInfo, packet.HopField{In: hop.In, Eg: hop.Eg})
	key, _ := s.engine.Level1(req.ID.SrcAS, now)
	sealed, err := s.cryptoFor(key).sealer.Seal(sigma[:], eerAuthAD(nil, req.ID, uint8(idx)))
	if err != nil {
		rollback()
		return fail("seal: %v", err)
	}
	if tAdmitted {
		// The version is committed: clamp the split's record of it to the
		// final path-wide grant, and return the replaced live version's
		// charge — the split tracks live committed bandwidth, not request
		// history (final ≤ grant ≤ capped by construction).
		s.transfer.Release(tCore, tUp, tCapped-final, tGrant-final)
		if req.Renewal && hadPrev && prevExpT > now {
			s.transfer.Release(tCore, tUp, prevBw, prevBw)
		}
		tAdmitted = false
	}
	resp.EncAuths[idx] = sealed
	return resp
}
