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
	cover, err := s.hopCover(req.SegIDs, req.Splits, n, idx)
	if err != nil {
		return fail("%v", err)
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

	// This hop's admission is a leg of one item (hopleg.go), on behalf of the
	// source AS whose key authenticated the request.
	leg := hopLeg{s: s, hopCover: cover, src: req.ID.SrcAS, renewal: req.Renewal}
	it := hopItem{grant: accum}
	var status uint8
	var aerr error
	s.cp.withPath(cover.segs(), func(p eerPath) {
		status, aerr = leg.admit(&p, &it, req.ID.Num, req.Ver, req.ExpT)
	})
	leg.count()
	switch {
	case status == EEItemThrottled:
		return fail("renewal rate limit: EER %s already renewed this second", req.ID)
	case aerr != nil:
		return fail("admission: %v", aerr)
	case status != EEItemOK:
		return fail("transfer split: only %d of %d kbps available on core SegR %s",
			it.grant, accum, cover.ids[1])
	}

	// final is the path-wide grant and off the offset of this hop's slot in out.
	final, off := it.grant, 0
	if idx == n-1 {
		// The response at its final size: OK, no reason, n slots still empty.
		out = make([]byte, 0, eeRespFixedLen+n*(2+sealedAuthLen))
		out = binary.BigEndian.AppendUint64(append(out, 1, 0, 0, 0), it.grant)
		out = binary.BigEndian.AppendUint16(out, uint16(n))
		out = out[:len(out)+2*n]
		off = len(out) - 2
	} else {
		// Forward the bytes received, accumulator overwritten.
		sc.fwd = append(sc.fwd[:0], req.wire...)
		binary.BigEndian.PutUint64(sc.fwd[len(sc.fwd)-8:], it.grant)
		var err error
		if out, err = s.transport.Call(req.Path[idx+1].IA, sc.fwd); err != nil {
			leg.rollback(&it, req.ID.Num)
			return failAt(idx+1, "transport: %v", err)
		}
		resp := &sc.soloResp
		if err := resp.unmarshal(out); err != nil {
			leg.rollback(&it, req.ID.Num)
			return failAt(idx+1, "response: %v", err)
		}
		if !resp.OK {
			leg.rollback(&it, req.ID.Num)
			reason = resp.Reason
			return out, false
		}
		var shaped bool
		if off, shaped = eeRespSlot(resp, len(out), n, idx); !shaped {
			leg.rollback(&it, req.ID.Num)
			return failAt(idx+1, "response: malformed")
		}
		final = resp.FinalKbps
	}
	// The nonce is the last thing that can fail: once it is drawn the version is
	// committed at the path-wide grant.
	sc.nonces = slices.Grow(sc.nonces[:0], cryptoutil.NonceSize)[:cryptoutil.NonceSize]
	if err := cryptoutil.RandomNonces(sc.nonces); err != nil {
		leg.rollback(&it, req.ID.Num)
		return fail("seal: %v", err)
	}
	leg.commit(&it, req.ID.Num, final)
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
	sc.ad = eerAuthAD(sc.ad[:0], req.ID, uint8(idx))
	size := len(out)
	out = slices.Grow(out, sealedAuthLen)[:size+sealedAuthLen]
	copy(out[off+2+sealedAuthLen:], out[off+2:size])
	binary.BigEndian.PutUint16(out[off:], sealedAuthLen)
	kc.sealer.SealTo(out[:off+2], sc.nonces, sc.sigma[:], sc.ad)
	return out, true
}
