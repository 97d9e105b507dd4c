package cserv

import (
	"encoding/binary"
	"slices"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// EERGrant is the result of a successful EER setup or renewal, ready to be
// installed at the Colibri gateway. PathHops and Splits retain the request
// parameters so renewals can be issued over the same reservation.
//
// Path, PathHops, Splits and SegIDs — the grant's chain — never change from
// version to version, and they are read-only: a setup's share their backing
// arrays with the directory's memoised chain it was set up over, a renewal's
// with the grant it renews, so writing one would rewrite every grant over the
// chain and every later setup. HopAuths is the grant's own. A KeeperFleet
// keeps no grant: Grant(i) builds keeper i's version from its columns and
// chain, without σs (HopAuths nil), which only its installer keeps.
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
// admits the reservation — the path choice of §2.1. More than MaxEERKbps is
// refused with ErrBandwidthRange before anything is asked of any hop.
func (s *Service) RequestEER(srcHost, dstHost uint32, dstIA topology.IA, bwKbps uint64) (*EERGrant, error) {
	if bwKbps > MaxEERKbps {
		return nil, ErrBandwidthRange
	}
	chains, err := s.chainsTo(dstIA)
	if err != nil {
		return nil, err
	}
	var grant *EERGrant
	for i := range chains {
		if grant, err = s.requestEEROverChain(srcHost, dstHost, bwKbps, &chains[i]); err == nil {
			break
		}
	}
	return grant, err
}

// requestEEROverChain sets the EER up over one directory chain, whose layout
// it copies into the scratch's request and the grant shares.
func (s *Service) requestEEROverChain(srcHost, dstHost uint32, bwKbps uint64, c *dirChain) (*EERGrant, error) {
	sc := s.getWave()
	defer s.putWave(sc)
	req := &sc.solo
	*req = EESetupReq{
		ID:      s.nextID(),
		SegIDs:  append(req.SegIDs[:0], c.segIDs...),
		Splits:  append(req.Splits[:0], c.splits...),
		Path:    append(req.Path[:0], c.hops...),
		BwKbps:  bwKbps,
		ExpT:    s.clock() + reservation.EERLifetimeSeconds,
		Ver:     1,
		SrcHost: srcHost,
		DstHost: dstHost,
		Macs:    req.Macs[:0],
	}
	return s.launchEE(sc, &EERGrant{Path: c.fields, PathHops: c.hops, Splits: c.splits, SegIDs: c.segIDs}, 0, 0)
}

// RenewEER renews an existing EER for a new version with possibly different
// bandwidth. Multiple versions remain valid concurrently, enabling seamless
// transition (§4.2). More than MaxEERKbps is refused with ErrBandwidthRange
// before anything is asked of any hop.
func (s *Service) RenewEER(prev *EERGrant, newBwKbps uint64) (*EERGrant, error) {
	if newBwKbps > MaxEERKbps {
		return nil, ErrBandwidthRange
	}
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
	return s.launchEE(sc, prev, uint64(prev.Res.BwKbps), prev.Res.ExpT)
}

// launchEE signs the request in sc.solo and runs it from hop 0. The request
// is a copy in the scratch's own memory — never the caller's slices, which the
// next request through this scratch would overwrite. The grant shares chain's
// Path, PathHops, Splits and SegIDs, which are the request's. heldKbps until
// heldExpT is what the EER holds of its host's policy budget if the request
// fails: hop 0 asks the policy, and the answer settles it.
func (s *Service) launchEE(sc *waveScratch, chain *EERGrant, heldKbps uint64, heldExpT uint32) (*EERGrant, error) {
	req := &sc.solo
	sc.fwd = req.appendBody(sc.fwd[:0])
	// K_{AS_i→us} signs the request towards AS_i and opens what AS_i seals.
	hops, err := s.signPath(req.Path, sc.fwd, &req.Macs)
	if err != nil {
		return nil, err
	}
	sc.fwd = req.appendTail(sc.fwd)
	// Hop 0 reads the request as every other hop does, through a view of the
	// bytes it forwards.
	if err := sc.soloV.load(sc.fwd); err != nil {
		return nil, err
	}
	resp := &sc.soloResp
	if err = resp.load(s.processEESetup(sc, 0, req.BwKbps)); err == nil {
		err = resp.refusal().at(resp.failedAt())
	}
	if err != nil {
		s.policy.SettleEER(req.SrcHost, req.ID, heldKbps, heldExpT)
		return nil, err
	}
	s.policy.SettleEER(req.SrcHost, req.ID, resp.final(), req.ExpT)
	grant := &EERGrant{Path: chain.Path, PathHops: chain.PathHops, Splits: chain.Splits, SegIDs: chain.SegIDs}
	// Hop 0 checked that there is one sealed σ per hop.
	item := req.item()
	if err := sc.openGrant(grant, hops[:], &item, resp.final(), resp); err != nil {
		return nil, err
	}
	return grant, nil
}

// sealedAuthLen is the size of a sealed hop authenticator (Eq. 5).
const sealedAuthLen = cryptoutil.KeySize + cryptoutil.SealOverhead

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

// processEESetup handles the EER setup/renewal request in sc.soloV — a view
// of sc.fwd, the bytes this hop forwards — at hop idx and returns the marshaled
// response, whose first byte is its refusal. The response of a grant is one
// buffer from the last hop to the initiator: the last hop allocates it at its
// final size, and every hop on the way back seals σ into its own slot of the
// bytes it received (they belong to the caller of Transport.Call), so no hop
// decodes, copies or re-encodes what other hops sealed.
func (s *Service) processEESetup(sc *waveScratch, idx int, accum uint64) (out []byte) {
	v := &sc.soloV
	item := v.item()
	renewal := v.renewal()
	defer func() {
		m, now := &s.metrics, int64(s.clock())*1e9
		if renewal {
			m.outcome(now, telemetry.EvEERenew, item.ID, Refusal(out[0]), m.EERenewOK, m.EERenewFail)
		} else {
			m.outcome(now, telemetry.EvEESetup, item.ID, Refusal(out[0]), m.EESetupOK, m.EESetupFail)
		}
	}()
	// K_{me→Src} both authenticates the request and seals σ for the source.
	kc, code := s.authHop(item.ID.SrcAS, v.body(), v.macAt(idx), idx)
	if code != Granted {
		return refuseEE(idx, code)
	}
	// σ and the data plane carry the bandwidth in 32 bits.
	if item.BwKbps > MaxEERKbps {
		return refuseEE(idx, RefusedBwRange)
	}
	n := v.nPath
	// The covering SegRs decide where this AS's admission state lives: one
	// segment normally, two at a transfer AS (§4.7).
	cover, ok := v.cover(idx)
	if !ok {
		return refuseEE(idx, RefusedCover)
	}
	// What needs no reservation state is decided first, so that everything
	// after it runs under one acquisition of the covering SegRs' shard locks,
	// and the commit or rollback under another.
	// Source-AS policy (§4.7: "the source AS has a direct business
	// relationship with the end host").
	if idx == 0 && s.policy.AllowEER(item.SrcHost, item.ID, item.BwKbps, item.ExpT) != nil {
		return refuseEE(idx, RefusedPolicy)
	}
	if idx == n-1 && s.vetoed(item) {
		return refuseEE(idx, RefusedVeto)
	}

	// This hop's admission is a leg of one item (hopleg.go), on behalf of the
	// source AS whose key authenticated the request.
	leg := hopLeg{s: s, hopCover: cover, src: item.ID.SrcAS, renewal: renewal}
	it := hopItem{grant: accum}
	s.cp.withPath(cover.segs(), func(p eerPath) {
		if code = leg.open(&p); code == Granted {
			code = leg.admit(&p, &it, item.ID.Num, item.Ver, item.ExpT)
		}
	})
	leg.count()
	if code != Granted {
		return refuseEE(idx, code)
	}

	// final is the path-wide grant and off the offset of this hop's slot in out.
	final, off := it.grant, 0
	if idx == n-1 {
		// The response at its final size: granted, n slots still empty.
		out = make([]byte, 0, eeRespFixedLen+n*(2+sealedAuthLen))
		out = binary.BigEndian.AppendUint64(append(out, byte(Granted), 0), it.grant)
		out = binary.BigEndian.AppendUint16(out, uint16(n))
		out = out[:len(out)+2*n]
		off = len(out) - 2
	} else {
		// Forward the bytes received, accumulator overwritten in this hop's copy.
		v.setAccum(it.grant)
		resp := &sc.soloResp
		out, code = s.forward(v.hopIA(idx+1), sc.fwd, resp.load)
		if code == Granted && resp.refusal() == Granted {
			if off = resp.slot(n, idx); off < 0 {
				code = RefusedBadAnswer
			}
		}
		if code != Granted || resp.refusal() != Granted {
			if it.admitted {
				s.cp.withPath(cover.segs(), func(p eerPath) { leg.rollback(&p, &it, item.ID.Num) })
			}
			if code != Granted {
				return refuseEE(idx+1, code)
			}
			return out
		}
		final = resp.final()
	}
	if final < max(it.grant, it.tGrant) { // a charge to clamp or split grants to return
		s.cp.withPath(cover.segs(), func(p eerPath) { leg.commit(&p, &it, item.ID.Num, final) })
	}
	// Seal σ_i into slot idx: what the hops behind this one sealed moves up by
	// one authenticator, within the buffer's capacity unless a transport handed
	// back one of exactly the response's size.
	size := len(out)
	out = slices.Grow(out, sealedAuthLen)[:size+sealedAuthLen]
	copy(out[off+2+sealedAuthLen:], out[off+2:size])
	binary.BigEndian.PutUint16(out[off:], sealedAuthLen)
	s.sealHopAuth(out[:off+2], sc, kc, &item, final, v.hopField(idx), idx)
	return out
}
