package cserv

import (
	"encoding/binary"
	"fmt"
	"slices"

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
	for i, off := range chain {
		segs[i] = off.Seg
	}
	path, err := segment.Join(segs...)
	if err != nil {
		return nil, err
	}
	sc := s.getWave()
	defer s.putWave(sc)
	req := &sc.solo
	*req = EESetupReq{
		ID:      s.store.NextID(),
		SegIDs:  req.SegIDs[:0],
		Splits:  req.Splits[:0],
		Path:    req.Path[:0],
		BwKbps:  bwKbps,
		ExpT:    s.clock() + reservation.EERLifetimeSeconds,
		Ver:     1,
		SrcHost: srcHost,
		DstHost: dstHost,
		Macs:    req.Macs[:0],
	}
	// Transfer-AS positions: cumulative segment ends.
	pos := 0
	for i, off := range chain {
		req.SegIDs = append(req.SegIDs, off.ID)
		if i < len(chain)-1 {
			pos += off.Seg.Len() - 1
			req.Splits = append(req.Splits, uint8(pos))
		}
	}
	for _, h := range path.Hops {
		req.Path = append(req.Path, PathHop{IA: h.IA, In: h.In, Eg: h.Eg})
	}
	return s.launchEE(sc, 0, 0)
}

// RenewEER renews an existing EER for a new version with possibly different
// bandwidth. Multiple versions remain valid concurrently, enabling seamless
// transition (§4.2).
func (s *Service) RenewEER(prev *EERGrant, newBwKbps uint64) (*EERGrant, error) {
	sc := s.getWave()
	defer s.putWave(sc)
	req := &sc.solo
	*req = EESetupReq{
		ID:      prev.ID,
		SegIDs:  append(req.SegIDs[:0], prev.SegIDs...),
		Splits:  append(req.Splits[:0], prev.Splits...),
		Path:    append(req.Path[:0], prev.PathHops...),
		BwKbps:  newBwKbps,
		ExpT:    s.clock() + reservation.EERLifetimeSeconds,
		Ver:     prev.Res.Ver + 1,
		SrcHost: prev.EER.SrcHost,
		DstHost: prev.EER.DstHost,
		Renewal: true,
		Macs:    req.Macs[:0],
	}
	return s.launchEE(sc, uint64(prev.Res.BwKbps), prev.Res.ExpT)
}

// launchEE signs the request in sc.solo and runs it from hop 0. The request
// is a copy in the scratch's own memory — never the caller's slices, which the
// next request through this scratch would overwrite. heldKbps until heldExpT is
// what the EER holds of its host's policy budget if the request fails: hop 0
// asks the policy, and the answer settles it.
func (s *Service) launchEE(sc *waveScratch, heldKbps uint64, heldExpT uint32) (*EERGrant, error) {
	req := &sc.solo
	n := len(req.Path)
	if n > packet.MaxHops {
		return nil, fmt.Errorf("cserv: %d hops exceeds maximum", n)
	}
	// K_{AS_i→us} signs the request towards AS_i and opens what AS_i seals
	// (Eq. 5): fetched once per hop.
	now := s.clock()
	var hops [packet.MaxHops]*keyCrypto
	for i, h := range req.Path {
		key, err := s.hopKey(h.IA, now)
		if err != nil {
			return nil, err
		}
		hops[i] = s.cryptoFor(key)
	}
	sc.fwd = req.appendBody(sc.fwd[:0])
	req.bodyLen = len(sc.fwd)
	req.Macs = slices.Grow(req.Macs, n)[:n]
	for i := range req.Macs {
		hops[i].cmac.SumInto(&req.Macs[i], sc.fwd)
	}
	sc.fwd = req.appendTail(sc.fwd)
	req.wire = sc.fwd
	out, _ := s.processEESetup(sc, 0, req.BwKbps)
	resp := &sc.soloResp
	err := resp.unmarshal(out)
	if err == nil && !resp.OK {
		err = fmt.Errorf("%w: EER setup failed at hop %d: %s", ErrRefused, resp.FailedAt, resp.Reason)
	}
	if err != nil {
		s.policy.SettleEER(req.SrcHost, req.ID, heldKbps, heldExpT)
		return nil, err
	}
	s.policy.SettleEER(req.SrcHost, req.ID, resp.FinalKbps, req.ExpT)
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
		HopAuths: make([]cryptoutil.Key, n),
	}
	// Decrypt the hop authenticators: hop 0 checked that there is one per hop.
	for i, enc := range resp.EncAuths {
		sc.ad = eerAuthAD(sc.ad[:0], req.ID, uint8(i))
		if err := openHopAuth(hops[i].sealer, &grant.HopAuths[i], enc, sc.ad); err != nil {
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

// coveringSegs appends to dst the indices into a chain's SegIDs of the segment
// reservations hop idx participates in (one normally, two at transfer ASes).
// Solo requests and renewal waves share the geometry; dst is normally a slice
// of a stack array of two.
func coveringSegs(dst []int, nSeg int, splits []uint8, pathLen, idx int) []int {
	if nSeg == 1 {
		return append(dst, 0)
	}
	start := 0
	for k := 0; k < nSeg; k++ {
		end := pathLen - 1
		if k < len(splits) {
			end = int(splits[k])
		}
		if idx >= start && idx <= end {
			dst = append(dst, k)
		}
		start = end
	}
	return dst
}

// eeRespSlot checks that resp, an OK response of size bytes, has the shape hop
// idx of an n-hop path must receive — n authenticator slots, sealed by every
// hop behind idx and by no other — and returns the offset of slot idx.
func eeRespSlot(resp *EESetupResp, size, n, idx int) (off int, ok bool) {
	if len(resp.EncAuths) != n {
		return 0, false
	}
	for i, ea := range resp.EncAuths {
		if (i <= idx && len(ea) != 0) || (i > idx && len(ea) != sealedAuthLen) {
			return 0, false
		}
	}
	return size - (n-1-idx)*(2+sealedAuthLen) - 2, true
}

// processEESetup handles the EER setup/renewal request decoded into sc.solo at
// hop idx and returns the marshaled response with whether it is a grant. The
// response of a grant is one buffer from the last hop to the initiator: the
// last hop allocates it at its final size, and every hop on the way back seals
// σ into its own slot of the bytes it received (they belong to the caller of
// Transport.Call), so no hop decodes, copies or re-encodes what other hops
// sealed.
func (s *Service) processEESetup(sc *waveScratch, idx int, accum uint64) (out []byte, ok bool) {
	req := &sc.solo
	var reason string
	defer func() {
		kind := telemetry.EvEESetup
		switch {
		case ok && req.Renewal:
			s.metrics.EERenewOK.Add(1)
			kind = telemetry.EvEERenew
		case ok:
			s.metrics.EESetupOK.Add(1)
		case req.Renewal:
			s.metrics.EERenewFail.Add(1)
			kind = telemetry.EvEERenew
		default:
			s.metrics.EESetupFail.Add(1)
		}
		s.metrics.TraceID(int64(s.clock())*1e9, kind, req.ID, ok, reason)
	}()
	failAt := func(hop int, format string, args ...any) ([]byte, bool) {
		reason = fmt.Sprintf(format, args...)
		return (&EESetupResp{FailedAt: uint8(hop), Reason: reason}).Marshal(), false
	}
	fail := func(format string, args ...any) ([]byte, bool) { return failAt(idx, format, args...) }
	now := s.clock()
	// K_{me→Src} both authenticates the request (§4.5) and seals σ for the
	// source (Eq. 5): derived on the fly, once.
	key, _ := s.engine.Level1(req.ID.SrcAS, now)
	kc := s.cryptoFor(key)
	if idx > 0 {
		if err := kc.verify(req.wire[:req.bodyLen], req.Macs, idx); err != nil {
			s.metrics.AuthFailures.Add(1)
			return fail("authentication: %v", err)
		}
		if !s.rate.Allow(req.ID.SrcAS, now) {
			s.metrics.RateLimited.Add(1)
			return fail("rate limited")
		}
	}
	n := len(req.Path)
	hop := req.Path[idx]
	// The covering SegRs decide where this AS's admission state lives: one
	// segment normally, two at a transfer AS (§4.7).
	var coverBuf [2]int
	covering := coveringSegs(coverBuf[:0], len(req.SegIDs), req.Splits, n, idx)
	if len(covering) == 0 || len(covering) > 2 {
		return fail("hop %d is covered by %d segment reservations, not one or two", idx, len(covering))
	}
	// What needs no reservation state is decided first, so that everything
	// after it runs under one acquisition of the covering SegRs' shard locks.
	// Source-AS policy (§4.7: "the source AS has a direct business
	// relationship with the end host").
	if idx == 0 {
		if err := s.policy.AllowEER(req.SrcHost, req.ID, req.BwKbps, req.ExpT); err != nil {
			return fail("policy: %v", err)
		}
	}
	// Destination approval (§3.3: the destination host "also has to
	// explicitly accept the EER request").
	if idx == n-1 && s.dstApprove != nil && !s.dstApprove(req) {
		return fail("destination refused")
	}
	var segIDBuf [2]reservation.ID
	var segRBuf [2]*reservation.SegR
	localSegIDs, segRs := segIDBuf[:0], segRBuf[:0]
	for _, k := range covering {
		sr, err := s.store.GetSegR(req.SegIDs[k])
		if err != nil {
			return fail("segment reservation: %v", err)
		}
		localSegIDs = append(localSegIDs, sr.ID)
		segRs = append(segRs, sr)
	}

	// admit is this hop's admission leg — dedup, throttle, the transfer split,
	// then the charge, the order in which a wave settles an item — run against
	// p, the CPlane's covering-SegR set with its shard locks held for the whole
	// leg. refusal is its failure answer.
	//
	// prev is the record this request replaces (the CPlane holds one version
	// per EER): the transfer split credits it as freed headroom and returns its
	// charge once the new version commits, and a downstream failure reinstates
	// it. A transfer-split admission must be returned on every exit path in
	// exactly what it no longer claims — refusal, admission failure, downstream
	// rollback, and the final clamp to the path-wide minimum — so the split
	// tracks precisely the live committed charges (dead demand otherwise
	// accumulates until the fair-share cap refuses everything; the
	// renewal-storm recovery at 10⁶ flows found every one of these).
	var dup, hadPrev, tAdmitted bool
	var prev cpEER
	var tCapped, tGrant uint64
	var tUp, tCore reservation.ID
	var refusal []byte
	grant := accum
	// releaseT undoes the split admission in full — for every path on which
	// this hop's new version does not survive.
	releaseT := func() {
		if tAdmitted {
			s.transfer.Release(tCore, tUp, tCapped, tGrant)
			tAdmitted = false
		}
	}
	admit := func(p eerPath) {
		// Idempotent retry detection (idempotency key: (ID, Ver) with matching
		// expiry): a lost response leaves every hop downstream of the loss
		// committed, so a retried request finds its own version here. Answer
		// from it instead of admitting again — and decide before the renewal
		// throttle, which must not refuse the retry of the very renewal it just
		// let through.
		prev, hadPrev = p.lookup(req.ID)
		if dup = hadPrev && prev.ver == req.Ver && prev.expT == req.ExpT; dup {
			s.metrics.DedupHits.Add(1)
			grant = prev.bw
			return
		}
		// A renewal that finds no record is a re-admission, which is born
		// stamped (setup below): the throttle is the record's alone.
		if req.Renewal && hadPrev && !p.allowRenew(&prev) {
			s.metrics.RenewThrottle.Add(1)
			refusal, _ = fail("renewal rate limit: EER %s already renewed this second", req.ID)
			return
		}
		// Transfer-AS proportional split between up- and core-SegR (§4.7).
		if len(segRs) == 2 && segRs[0].SegType == segment.Up && segRs[1].SegType == segment.Core {
			up, core := segRs[0], segRs[1]
			upAvail, coreAvail := p.avail(0, req.ExpT), p.avail(1, req.ExpT)
			if req.Renewal && hadPrev && prev.expT > now {
				// The ledgers still carry this EER's own live charge, which the
				// renewal replaces — renew withdraws it before probing. Credit it
				// so the split sees the true post-renewal headroom.
				upAvail += prev.bw
				coreAvail += prev.bw
			}
			asked := grant
			grant = s.transfer.Admit(core.ID, up.ID, asked,
				up.Active.BwKbps, core.Active.BwKbps,
				upAvail, coreAvail)
			tCapped = min(asked, up.Active.BwKbps)
			// A *setup* is granted in full or refused (§4.7: "the intended
			// bandwidth is granted if there is sufficient available bandwidth");
			// only renewals may be granted a reduced amount (§4.2).
			if grant == 0 || (!req.Renewal && grant < asked) {
				s.transfer.Release(core.ID, up.ID, tCapped, grant)
				if req.Renewal && hadPrev {
					p.keep(req.ID, prev)
				}
				s.metrics.AdmReject.Add(1)
				if req.Renewal {
					// The EER's previous versions stay valid: the flow falls
					// back to them instead of being torn down.
					s.metrics.AdmFallback.Add(1)
				}
				refusal, _ = fail("transfer split: only %d of %d kbps available on core SegR %s",
					grant, asked, core.ID)
				return
			}
			tAdmitted, tGrant, tUp, tCore = true, grant, up.ID, core.ID
		}
		// Admit (reserve) the requested bandwidth against the local SegRs; the
		// backward pass adjusts it down to the path-wide minimum.
		var aerr error
		if req.Renewal && hadPrev {
			// Renewals may legally shrink to the free bandwidth (§4.2).
			grant, aerr = p.renew(req.ID, prev, grant, req.ExpT, req.Ver)
		} else {
			// A fresh setup — or a renewal of an EER this AS no longer
			// holds (version expired, or state lost in a crash): admit it
			// anew so the flow re-promotes instead of staying demoted.
			aerr = p.setup(req.ID, grant, req.ExpT, req.Ver, req.Renewal)
		}
		if aerr != nil {
			releaseT()
			s.metrics.AdmReject.Add(1)
			if req.Renewal {
				s.metrics.AdmFallback.Add(1)
			}
			refusal, _ = fail("admission: %v", aerr)
		}
	}
	s.cp.withPath(localSegIDs, admit)
	if refusal != nil {
		return refusal, false
	}
	rollback := func() {
		if dup {
			// Retried request over committed state: the original round
			// owns this version's lifecycle.
			return
		}
		releaseT()
		if req.Renewal && hadPrev {
			s.cp.RestoreEERPath(req.ID, localSegIDs, prev.bw, prev.expT, prev.ver)
		} else {
			s.cp.TeardownEERPath(req.ID, localSegIDs)
		}
	}

	// final is the path-wide grant and off the offset of this hop's slot in out.
	final, off := grant, 0
	if idx == n-1 {
		// The response at its final size: OK, no reason, n slots still empty.
		out = make([]byte, 0, eeRespFixedLen+n*(2+sealedAuthLen))
		out = binary.BigEndian.AppendUint64(append(out, 1, 0, 0, 0), grant)
		out = binary.BigEndian.AppendUint16(out, uint16(n))
		out = out[:len(out)+2*n]
		off = len(out) - 2
	} else {
		// Forward the bytes received, accumulator overwritten.
		sc.fwd = append(sc.fwd[:0], req.wire...)
		binary.BigEndian.PutUint64(sc.fwd[len(sc.fwd)-8:], grant)
		var err error
		if out, err = s.transport.Call(req.Path[idx+1].IA, sc.fwd); err != nil {
			rollback()
			return failAt(idx+1, "transport: %v", err)
		}
		resp := &sc.soloResp
		if err := resp.unmarshal(out); err != nil {
			rollback()
			return failAt(idx+1, "response: %v", err)
		}
		if !resp.OK {
			rollback()
			reason = resp.Reason
			return out, false
		}
		var shaped bool
		if off, shaped = eeRespSlot(resp, len(out), n, idx); !shaped {
			rollback()
			return failAt(idx+1, "response: malformed")
		}
		final = resp.FinalKbps
	}
	if final < grant {
		s.cp.AdjustEERPath(req.ID, localSegIDs, final)
	}
	// Compute σ_i (Eq. 4) over the final reservation parameters and seal it
	// for the source AS (Eq. 5) into slot idx: what the hops behind this one
	// sealed moves up by one authenticator, within the buffer's capacity unless
	// a transport handed back one of exactly the response's size.
	res := packet.ResInfo{
		SrcAS:  req.ID.SrcAS,
		ResID:  req.ID.Num,
		BwKbps: uint32(final),
		ExpT:   req.ExpT,
		Ver:    req.Ver,
	}
	eerInfo := packet.EERInfo{SrcHost: req.SrcHost, DstHost: req.DstHost}
	sc.sigma = s.hopAuth(&res, &eerInfo, packet.HopField{In: hop.In, Eg: hop.Eg})
	sc.nonces = slices.Grow(sc.nonces[:0], cryptoutil.NonceSize)[:cryptoutil.NonceSize]
	if err := cryptoutil.RandomNonces(sc.nonces); err != nil {
		rollback()
		return fail("seal: %v", err)
	}
	sc.ad = eerAuthAD(sc.ad[:0], req.ID, uint8(idx))
	size := len(out)
	out = slices.Grow(out, sealedAuthLen)[:size+sealedAuthLen]
	copy(out[off+2+sealedAuthLen:], out[off+2:size])
	binary.BigEndian.PutUint16(out[off:], sealedAuthLen)
	kc.sealer.SealTo(out[:off+2], sc.nonces, sc.sigma[:], sc.ad)
	if tAdmitted {
		// The version is committed: clamp the split's record of it to the
		// final path-wide grant, and return the replaced live version's
		// charge — the split tracks live committed bandwidth, not request
		// history (final ≤ grant ≤ capped by construction).
		s.transfer.Release(tCore, tUp, tCapped-final, tGrant-final)
		if req.Renewal && hadPrev && prev.expT > now {
			s.transfer.Release(tCore, tUp, prev.bw, prev.bw)
		}
	}
	return out, true
}
