// batchrenew.go — the batched EER renewal message (tag 7) and its handler.
//
// A renewal storm is the control plane's steady-state load: every live EER
// renews once per lifetime (16 s, §4.2), so a million flows mean ~60 k
// renewals per second arriving at each on-path CServ. Sending each as its
// own EESetupReq costs one MAC verification, one rate-limit token, and one
// transport round per EER per hop. EEBatchRenewReq amortizes all three: a
// wave of renewals that share one SegR chain (same SegIDs, Splits, and Path
// — the common case, since a source AS's flows to one destination ride the
// same chain) travels as one message with one MAC per hop, and the handler
// settles every item of the wave, in wave order, under one acquisition of
// the covering SegRs' shard locks per pass instead of one per renewal.
//
// The per-item protocol semantics are a solo renewal's, because the code is:
// each item runs the shared hop leg of hopleg.go — idempotent dedup by (ID,
// Ver, ExpT), the per-EER renewal throttle, the transfer split, the charge,
// the clamp to the path-wide minimum on the response pass, and rollback to
// the previous version when a downstream hop fails.
//
// Threat model of a wave. One MAC under the source AS's key covers all items,
// so a wave's items share their source: a wave that names an EER of any other
// AS is malformed and refused whole before any state is touched (an AS could
// otherwise shrink, throttle or re-version a competitor's reservation at every
// transit hop they share), and the leg addresses records by that source alone.
package cserv

import (
	"encoding/binary"
	"slices"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/telemetry"
)

// EEBatchItem is one renewal of an EEBatchRenewReq.
type EEBatchItem struct {
	ID      reservation.ID
	Ver     uint16
	BwKbps  uint64
	ExpT    uint32
	SrcHost uint32
	DstHost uint32
}

// infos returns what σ covers (Eq. 4) of the EER version it at bandwidth bw,
// a grant, which is never above MaxEERKbps.
func (it *EEBatchItem) infos(bw uint64) (packet.ResInfo, packet.EERInfo) {
	return packet.ResInfo{SrcAS: it.ID.SrcAS, ResID: it.ID.Num, BwKbps: uint32(bw), ExpT: it.ExpT, Ver: it.Ver},
		packet.EERInfo{SrcHost: it.SrcHost, DstHost: it.DstHost}
}

// Wire sizes of a wave's parts. Every count a decoder reads is checked against
// the bytes that remain before anything is sized by it: the counts arrive
// before any MAC can be verified.
const (
	eeBatchItemLen = 12 + 2 + 8 + 4 + 4 + 4 // one Items entry of the MAC-covered body
	eeBatchTailLen = 8 + 1                  // one Accums/Status (or Granted/Status) entry
	// eeBatchRespFixedLen is the size of an EEBatchRenewResp without its items
	// and blobs: the refusal, FailedAt, the item count, the blob count.
	eeBatchRespFixedLen = 1 + 1 + 4 + 1
)

// blobLen is the size of one hop's blob in the answer to a wave: its σs of
// the live items, sealed.
func blobLen(live int) int { return cryptoutil.SealOverhead + cryptoutil.KeySize*live }

// EEBatchRenewReq renews a wave of EERs that share one SegR chain. SegIDs,
// Splits, and Path have EESetupReq's meaning and apply to every item. Accums
// and Status are AS-added mutable data (outside the source's MACs, like
// EESetupReq.AccumKbps): Accums[i] carries item i's running-minimum grant and
// Status[i] its first refusal (Granted while it lives), so downstream hops
// skip dead items and the source learns each item's fate.
type EEBatchRenewReq struct {
	SegIDs []reservation.ID
	Splits []uint8
	Path   []PathHop
	Items  []EEBatchItem
	Macs   [][cryptoutil.MACSize]byte
	Accums []uint64
	Status []Refusal

	// wire is the encoding of Body() ‖ Macs a decoder read this request from,
	// and bodyLen the body's share of it. A hop reads a wave through a
	// waveView instead (views.go).
	wire    []byte
	bodyLen int
}

func (r *EEBatchRenewReq) appendBody(b []byte) []byte {
	b = append(b, tagEEBatchRenew)
	b = append(b, byte(len(r.SegIDs)))
	for _, id := range r.SegIDs {
		b = appendID(b, id)
	}
	b = append(b, byte(len(r.Splits)))
	b = append(b, r.Splits...)
	b = appendHops(b, r.Path)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Items)))
	for i := range r.Items {
		it := &r.Items[i]
		b = appendID(b, it.ID)
		b = binary.BigEndian.AppendUint16(b, it.Ver)
		b = binary.BigEndian.AppendUint64(b, it.BwKbps)
		b = binary.BigEndian.AppendUint32(b, it.ExpT)
		b = binary.BigEndian.AppendUint32(b, it.SrcHost)
		b = binary.BigEndian.AppendUint32(b, it.DstHost)
	}
	return b
}

// appendTail appends the mutable per-item tail.
func (r *EEBatchRenewReq) appendTail(b []byte) []byte {
	for i := range r.Items {
		b = binary.BigEndian.AppendUint64(b, r.Accums[i])
		b = append(b, byte(r.Status[i]))
	}
	return b
}

// EEBatchRenewResp travels the reverse path. Granted reports the batch was
// processed end to end (individual items may still be refused — see Status);
// a refusal means a hop could not process the batch at all and every hop
// rolled back every item. Blobs[h] is what AS h sealed for the source (Eq. 5):
// nonce ‖ AES-GCM(its σ of every live item, status Granted, in wave order) ‖
// tag, blobLen(live) bytes, one per hop of the path.
//
// On the wire the blobs follow their count without length prefixes: the
// status vector before them implies their length.
type EEBatchRenewResp struct {
	Refusal  Refusal
	FailedAt uint8
	Granted  []uint64
	Status   []Refusal
	Blobs    [][]byte
}

// Marshal encodes the response into one buffer of exactly its size.
func (r *EEBatchRenewResp) Marshal() []byte {
	size := eeBatchRespFixedLen + eeBatchTailLen*len(r.Granted)
	for _, blob := range r.Blobs {
		size += len(blob)
	}
	b := append(make([]byte, 0, size), byte(r.Refusal), r.FailedAt)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Granted)))
	for i := range r.Granted {
		b = binary.BigEndian.AppendUint64(b, r.Granted[i])
		b = append(b, byte(r.Status[i]))
	}
	b = append(b, byte(len(r.Blobs)))
	for _, blob := range r.Blobs {
		b = append(b, blob...)
	}
	return b
}

// waveScratch is the working memory of one request at one service: the views
// of the request and of the downstream response, the per-item states, and the
// flat buffers this hop forwards and seals from. A service keeps its idle
// scratch (getWave/putWave), so a steady renewal storm allocates per wave only
// what leaves the handler — the last hop's response, the grants. A solo
// request (tags 4/5) is a wave of one as far as scratch goes: soloV and
// soloResp are its views, and it shares fwd, the nonces, ad and sigma. req and
// solo are the initiator's requests, which it encodes from; seg, act and down
// a decoded SegR setup or renewal, activation and down request.
//
// Every seal through a scratch, solo or wave, takes its nonce from the
// scratch's counter (nextNonce), the deterministic construction of NIST SP
// 800-38D §8.2.1: a random 96-bit base drawn once, when getWave creates the
// scratch, with the count of seals made through it XORed into its low 64 bits.
// A scratch serves one handler at a time, so its nonces are distinct for 2⁶⁴
// seals; two scratches that seal at most N times each meet only if their
// bases agree in the high 32 bits and XOR to less than 2N in the low 64, so S
// such scratches repeat a nonce, under any key, with probability at most
// S²·N/2⁹⁶ — 2⁻³² for 2¹⁶ scratches of 2³² seals each. A scratch putWave
// discards takes its counter with it, and the next one draws a fresh base.
type waveScratch struct {
	req      EEBatchRenewReq
	wave     waveView
	resp     waveRespView
	solo     EESetupReq
	soloV    eeReqView
	soloResp eeRespView
	seg      SegSetupReq
	act      SegActivateReq
	down     DownSegReq
	states   []hopItem
	// fwd is the request as this hop forwards it, which the views read: a wire
	// hop's copy of what it received, the initiator's encoding at hop 0. The
	// hop writes its accumulator, or its items' grants and statuses, into it in
	// place.
	fwd []byte
	// sigmas holds this hop's σs of the live items before it seals them and, at
	// the source, every hop's once opened (sealWave, openWave).
	sigmas []byte
	// nonceBase is the scratch's random nonce base and seals the count of
	// nonces taken from it.
	nonceBase [cryptoutil.NonceSize]byte
	seals     uint64
	ad        []byte
	sigma     cryptoutil.Key
	// grant and auths are the initiator's grant of the item renewWave hands to
	// its caller, and that grant's hop authenticators.
	grant EERGrant
	auths []cryptoutil.Key
	// ahead is what the forward pass's read-ahead returned (eerPath.readAhead),
	// stored only so that its loads are not dead code. Nothing reads it.
	ahead uint16
}

// maxRetainedWave caps the item capacity of scratch a service keeps: a wave
// far beyond what KeeperFleet sends is served, but its buffers are not kept.
const maxRetainedWave = 2 * DefaultBatchSize

// maxRetainedFwd caps the forward buffer a service keeps, the size of a wave of
// maxRetainedWave items over a chain of the longest path.
const maxRetainedFwd = (eeBatchItemLen+eeBatchTailLen)*maxRetainedWave + (hopLen+cryptoutil.MACSize)*packet.MaxHops + 1024

// processEEBatchRenew handles the batched renewal wave in sc.wave — a view of
// sc.fwd, the bytes this hop forwards — at hop idx and returns the marshaled
// response. What the wave pays once: one MAC verification and one rate-limit
// token, one acquisition of the covering SegRs' shard locks for the whole
// forward pass, one nonce and one seal for the response pass, one update per
// counter. What each item pays: the shared hop leg — admit on the forward
// pass, commit at the path-wide minimum or rollback on the response pass — and
// this AS's σ. A transport-level downstream failure rolls back every item.
// The items' grants and statuses this hop decides it writes in place into the
// tail of sc.fwd, which it forwards.
//
// The response of a processed wave is one buffer from the last hop to the
// initiator, as a solo grant's is: the last hop allocates it at its final size
// (its statuses are final, and they fix every blob's length), and every hop on
// the way back seals its blob straight into its own slot of the bytes it
// received (they belong to the caller of Transport.Call), so no hop decodes
// more than the statuses and grants, or re-encodes what other hops sealed.
func (s *Service) processEEBatchRenew(sc *waveScratch, idx int) (out []byte) {
	w := &sc.wave
	n := w.n
	tail := w.outcomes()
	// answered is the final outcomes once the wave is processed.
	var answered itemTail
	defer func() {
		ok := answered.live()
		s.metrics.EERenewOK.Add(uint64(ok))
		s.metrics.EERenewFail.Add(uint64(n - ok))
		code := Refusal(out[0])
		s.metrics.Trace(int64(s.clock())*1e9, telemetry.EvEERenew, "batch", code == Granted, code.detail())
	}()
	if n == 0 {
		return refuseWave(idx, RefusedMalformed)
	}
	// The wave is authenticated under one key: its items share their source.
	src := w.itemSrc(0)
	for i := range n {
		if w.itemSrc(i) != src {
			return refuseWave(idx, RefusedMalformed)
		}
	}
	// K_{me→Src} authenticates the wave, charged one rate-limit token (§5.3),
	// and seals every item's σ for the source.
	kc, code := s.authHop(src, w.body(), w.macAt(idx), idx)
	if code != Granted {
		return refuseWave(idx, code)
	}
	cover, ok := w.cover(idx)
	if !ok {
		return refuseWave(idx, RefusedCover)
	}
	// An item asking for more than σ and the data plane carry is refused, and
	// the destination vets every live item as it does a solo request.
	nHops := w.nPath
	last := idx == nHops-1
	for i := range n {
		switch _, _, bw, _ := w.itemLeg(i); {
		case tail.status(i) != Granted:
		case bw > MaxEERKbps:
			tail.setStatus(i, RefusedBwRange)
		case last && s.vetoed(w.item(i)):
			tail.setStatus(i, RefusedVeto)
		}
	}

	sc.states = slices.Grow(sc.states[:0], n)[:n]
	clear(sc.states)
	states := sc.states
	// Forward pass: every live item's leg in wave order, under one acquisition
	// of the covering SegRs' shard locks. Each item settles before the next one
	// starts, so a later item sees the demand per-EER processing would show it.
	// The records are read ahead first, so that their cache misses overlap.
	leg := hopLeg{s: s, hopCover: cover, src: src, renewal: true}
	s.cp.withPath(cover.segs(), func(p eerPath) {
		if code = leg.open(&p); code != Granted {
			return
		}
		sc.ahead = p.readAhead(w, tail)
		for i := range n {
			if tail.status(i) != Granted {
				continue
			}
			num, ver, bw, expT := w.itemLeg(i)
			states[i].grant = min(tail.grant(i), bw)
			tail.setStatus(i, leg.admit(&p, &states[i], num, ver, expT))
		}
	})
	leg.count()
	if code != Granted {
		return refuseWave(idx, code)
	}
	// settle commits the items live in final at the path-wide minimum and rolls
	// back the rest (every item for a nil final), under one more acquisition of
	// the locks.
	settle := func(final itemTail) {
		s.cp.withPath(cover.segs(), func(p eerPath) {
			for i := range n {
				num := w.itemID(i).Num
				if final == nil || final.status(i) != Granted {
					leg.rollback(&p, &states[i], num)
				} else {
					leg.commit(&p, &states[i], num, final.grant(i))
				}
			}
		})
	}

	// This hop's outcomes go into the tail it forwards.
	for i := range n {
		tail.setGrant(i, states[i].grant)
	}
	// final is the outcomes of the last hop.
	var final itemTail
	if last {
		// The response at its final size: the outcomes, and nHops blobs still
		// empty.
		const items = eeBatchRespFixedLen - 1
		out = make([]byte, eeBatchRespFixedLen+len(tail)+nHops*blobLen(tail.live()))
		binary.BigEndian.PutUint32(out[2:], uint32(n))
		final = itemTail(out[items : items+len(tail)])
		copy(final, tail)
		out[items+len(tail)] = byte(nHops)
	} else {
		resp := &sc.resp
		out, code = s.forward(w.hopIA(idx+1), sc.fwd, resp.load)
		if code == Granted && resp.refusal() == Granted && !answerFits(w, tail, resp) {
			code = RefusedBadAnswer
		}
		if code != Granted || resp.refusal() != Granted {
			settle(nil)
			if code != Granted {
				return refuseWave(idx+1, code)
			}
			return out
		}
		final = resp.outcomes()
	}

	// Response pass: settle every item by the final outcomes, and seal this
	// AS's σs of the live ones into its blob under the scratch's next nonce.
	settle(final)
	size := blobLen(final.live())
	off := len(out) - (nHops-idx)*size
	s.sealWave(out[off:off+size], sc, kc, idx, final)
	answered = final
	return out
}

// answerFits reports whether resp, a downstream hop's granted answer to the
// wave w with the outcomes tail this hop forwarded, has the shape that answer
// must: an entry per item, a blob per hop, and no item live that this hop
// forwarded dead (this hop would seal a σ for a version it refused).
func answerFits(w *waveView, tail itemTail, resp *waveRespView) bool {
	if resp.n != w.n || resp.nb != w.nPath {
		return false
	}
	final := resp.outcomes()
	for i := range resp.n {
		if final.status(i) == Granted && tail.status(i) != Granted {
			return false
		}
	}
	return true
}

// renewItem is what a wave reads of one EER it renews: the serving version
// and the bandwidth asked for the next.
type renewItem struct {
	ID               reservation.ID
	Ver              uint16
	BwKbps, ExpT     uint32
	SrcHost, DstHost uint32
	NewBwKbps        uint64
}

// renewWave is RenewEERBatch without the grants: it renews the n EERs item(0)
// … item(n-1), which ride chain — its Path, PathHops, Splits and SegIDs; no
// other field of it is read — and hands each item's outcome to yield, in wave
// order, while the wave's scratch is held. g is the scratch's grant — Res and
// EER the new version's, HopAuths the σs opened for it, the rest chain's —
// valid until yield returns, and nil with an error. By the time yield sees
// item i the wave has read all it needs of item(i), so yield may overwrite
// what item(i) reads (a keeper renewing in place).
func (s *Service) renewWave(chain *EERGrant, n int, item func(i int) renewItem, yield func(i int, g *EERGrant, err error)) {
	now := s.clock()
	sc := s.getWave()
	defer s.putWave(sc)
	req := &sc.req
	req.SegIDs = append(req.SegIDs[:0], chain.SegIDs...)
	req.Splits = append(req.Splits[:0], chain.Splits...)
	req.Path = append(req.Path[:0], chain.PathHops...)
	// held settles item i with the host policy at what its EER held before.
	held := func(i int) {
		p := item(i)
		s.policy.SettleEER(p.SrcHost, p.ID, uint64(p.BwKbps), p.ExpT)
	}
	for i := range n {
		p := item(i)
		it := EEBatchItem{
			ID:      p.ID,
			Ver:     p.Ver + 1,
			BwKbps:  p.NewBwKbps,
			ExpT:    now + reservation.EERLifetimeSeconds,
			SrcHost: p.SrcHost,
			DstHost: p.DstHost,
		}
		// An item asking for more than MaxEERKbps, and one the source-AS policy
		// refuses, as at hop 0 of a solo request, travel as refused, and every
		// hop skips them.
		status := Granted
		switch {
		case it.BwKbps > MaxEERKbps:
			status = RefusedBwRange
		case s.policy.AllowEER(it.SrcHost, it.ID, it.BwKbps, it.ExpT) != nil:
			status = RefusedPolicy
		}
		req.Items = append(req.Items, it)
		req.Accums = append(req.Accums, p.NewBwKbps)
		req.Status = append(req.Status, status)
	}
	sc.fwd = req.appendBody(sc.fwd[:0])
	hops, err := s.signPath(req.Path, sc.fwd, &req.Macs)
	resp := &sc.resp
	if err == nil {
		sc.fwd = req.appendTail(appendMacs(sc.fwd, req.Macs))
		// Hop 0 reads the wave as every other hop does, through a view of the
		// bytes it forwards.
		if err = sc.wave.load(sc.fwd); err == nil {
			if err = resp.load(s.processEEBatchRenew(sc, 0)); err == nil {
				err = resp.refusal().at(resp.failedAt())
			}
		}
	}
	if err != nil {
		for i := range n {
			held(i)
			yield(i, nil, err)
		}
		return
	}
	// Open the hop authenticators (Eq. 5) of the surviving items: one blob per
	// hop, and a blob that does not open leaves no grant.
	openErr := sc.openWave(hops[:], resp)
	final := resp.outcomes()
	hopsN, live, j := len(req.Path), final.live(), 0
	sc.auths = slices.Grow(sc.auths[:0], hopsN)[:hopsN]
	g := &sc.grant
	for i := range n {
		it := &req.Items[i]
		if err := final.status(i).at(itemHop); err != nil {
			held(i)
			yield(i, nil, err)
			continue
		}
		s.policy.SettleEER(it.SrcHost, it.ID, final.grant(i), it.ExpT)
		if openErr != nil {
			yield(i, nil, openErr)
			continue
		}
		// The j-th live item's σ from hop h is the j-th of hop h's blob.
		*g = EERGrant{ID: it.ID, Path: chain.Path, PathHops: chain.PathHops, Splits: chain.Splits, SegIDs: chain.SegIDs, HopAuths: sc.auths}
		g.Res, g.EER = it.infos(final.grant(i))
		for h := range g.HopAuths {
			copy(g.HopAuths[h][:], sc.sigmas[(h*live+j)*cryptoutil.KeySize:])
		}
		j++
		yield(i, g, nil)
	}
	sc.grant = EERGrant{}
}
