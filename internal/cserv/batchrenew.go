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
// the covering SegRs' shard locks instead of one per renewal.
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
	"fmt"
	"slices"
	"strconv"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/telemetry"
)

// Per-item status codes of a batch renewal. They travel in the request's
// mutable tail (an upstream refusal tells downstream hops to skip the item)
// and in the response (the source learns each item's fate).
const (
	// EEItemOK: the item is live — admitted at every hop so far.
	EEItemOK uint8 = 0
	// EEItemRefused: a hop refused the renewal (insufficient bandwidth); the
	// flow falls back to its previous version until expiry (§4.2).
	EEItemRefused uint8 = 1
	// EEItemStale: a hop no longer held the EER's record (expired or lost in
	// a crash) and re-admission failed too.
	EEItemStale uint8 = 2
	// EEItemThrottled: the per-EER renewal rate limit rejected the item.
	EEItemThrottled uint8 = 3
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
	// eeBatchRespFixedLen is the size of an EEBatchRenewResp without its
	// reason, items and blobs: OK, FailedAt, the reason's length, the item
	// count, the blob count.
	eeBatchRespFixedLen = 2 + 2 + 4 + 1
)

// blobLen is the size of one hop's blob in the answer to a wave: its σs of
// the live items, sealed.
func blobLen(live int) int { return cryptoutil.SealOverhead + cryptoutil.KeySize*live }

// EEBatchRenewReq renews a wave of EERs that share one SegR chain. SegIDs,
// Splits, and Path have EESetupReq's meaning and apply to every item. Accums
// and Status are AS-added mutable data (outside the source's MACs, like
// EESetupReq.AccumKbps): Accums[i] carries item i's running-minimum grant and
// Status[i] its first refusal, so downstream hops skip dead items.
type EEBatchRenewReq struct {
	SegIDs []reservation.ID
	Splits []uint8
	Path   []PathHop
	Items  []EEBatchItem
	Macs   [][cryptoutil.MACSize]byte
	Accums []uint64
	Status []uint8

	// wire is the encoding of Body() ‖ Macs this request was decoded from (at
	// the initiator: encoded into) and bodyLen the body's share of it. No hop
	// changes those fields, so a hop authenticates and forwards the bytes it
	// received instead of encoding them again. wire aliases the received
	// message, which is read-only to the handler (the sender may resend it).
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
		b = append(b, r.Status[i])
	}
	return b
}

// unmarshal decodes data into r, reusing the capacity of r's per-item slices.
func (r *EEBatchRenewReq) unmarshal(data []byte) error {
	d := decoder{buf: data}
	if d.u8() != tagEEBatchRenew {
		return ErrBadTag
	}
	r.SegIDs, r.Splits = r.SegIDs[:0], r.Splits[:0]
	nseg := int(d.u8())
	for i := 0; i < nseg && d.err == nil; i++ {
		r.SegIDs = append(r.SegIDs, d.id())
	}
	nsplit := int(d.u8())
	for i := 0; i < nsplit && d.err == nil; i++ {
		r.Splits = append(r.Splits, d.u8())
	}
	r.Path = d.hops(nil)
	n := int(d.u32())
	if d.err == nil && n > len(d.buf)/(eeBatchItemLen+eeBatchTailLen) {
		return ErrTruncated
	}
	r.Items, r.Accums, r.Status = slices.Grow(r.Items[:0], n), slices.Grow(r.Accums[:0], n), slices.Grow(r.Status[:0], n)
	for i := 0; i < n && d.err == nil; i++ {
		r.Items = append(r.Items, EEBatchItem{
			ID: d.id(), Ver: d.u16(), BwKbps: d.u64(),
			ExpT: d.u32(), SrcHost: d.u32(), DstHost: d.u32(),
		})
	}
	r.bodyLen = len(data) - len(d.buf)
	r.Macs = d.macs(r.Macs[:0])
	r.wire = data[:len(data)-len(d.buf)]
	for i := 0; i < n && d.err == nil; i++ {
		r.Accums = append(r.Accums, d.u64())
		r.Status = append(r.Status, d.u8())
	}
	return d.err
}

// EEBatchRenewResp travels the reverse path. OK reports the batch was
// processed end to end (individual items may still be refused — see Status);
// !OK means a hop could not process the batch at all and every hop rolled
// back every item. Blobs[h] is what AS h sealed for the source (Eq. 5): nonce
// ‖ AES-GCM(its σ of every live item, status EEItemOK, in wave order) ‖ tag,
// blobLen(live) bytes, one per hop of the path.
//
// On the wire the blobs follow their count without length prefixes: the
// status vector before them implies their length.
type EEBatchRenewResp struct {
	OK       bool
	FailedAt uint8
	Reason   string
	Granted  []uint64
	Status   []uint8
	Blobs    [][]byte
}

// Marshal encodes the response into one buffer of exactly its size.
func (r *EEBatchRenewResp) Marshal() []byte {
	size := eeBatchRespFixedLen + len(r.Reason) + eeBatchTailLen*len(r.Granted)
	for _, blob := range r.Blobs {
		size += len(blob)
	}
	b := append(make([]byte, 0, size), boolByte(r.OK), r.FailedAt)
	b = appendString(b, r.Reason)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Granted)))
	for i := range r.Granted {
		b = binary.BigEndian.AppendUint64(b, r.Granted[i])
		b = append(b, r.Status[i])
	}
	b = append(b, byte(len(r.Blobs)))
	for _, blob := range r.Blobs {
		b = append(b, blob...)
	}
	return b
}

// unmarshal decodes data into r, reusing the capacity of r's slices. It is
// canonical-only, like the solo decoders: an OK byte other than 0/1, or bytes
// after the last blob, are ErrNotCanonical.
func (r *EEBatchRenewResp) unmarshal(data []byte) error {
	d := decoder{buf: data}
	ok := d.u8()
	r.OK = ok == 1
	r.FailedAt = d.u8()
	r.Reason = d.str()
	n := int(d.u32())
	if d.err == nil && n > len(d.buf)/eeBatchTailLen {
		return ErrTruncated
	}
	r.Granted, r.Status = slices.Grow(r.Granted[:0], n), slices.Grow(r.Status[:0], n)
	live := 0
	for i := 0; i < n && d.err == nil; i++ {
		r.Granted = append(r.Granted, d.u64())
		st := d.u8()
		r.Status = append(r.Status, st)
		if st == EEItemOK {
			live++
		}
	}
	nb, size := int(d.u8()), blobLen(live)
	switch {
	case d.err != nil:
		return d.err
	case nb*size > len(d.buf):
		return ErrTruncated
	case nb > packet.MaxHops:
		return fmt.Errorf("cserv: %d blobs exceeds maximum", nb)
	}
	r.Blobs = slices.Grow(r.Blobs[:0], nb)
	for range nb {
		r.Blobs = append(r.Blobs, d.take(size))
	}
	if ok > 1 || len(d.buf) != 0 {
		return ErrNotCanonical
	}
	return nil
}

// waveScratch is the working memory of one batch renewal at one service: the
// decoded request and downstream response, the per-item states, and the flat
// buffers this hop encodes and seals from. A service keeps its idle scratch
// (getWave/putWave), so a steady renewal storm allocates per wave only what
// leaves the handler — the last hop's response, the grants. A solo request
// (tags 4/5) is a wave of one as far as scratch goes: solo and soloResp are its
// decoded forms, whose slices own their memory, and it shares fwd, the nonces,
// ad and sigma.
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
	resp     EEBatchRenewResp
	solo     EESetupReq
	soloResp EESetupResp
	states   []hopItem
	fwd      []byte // the request as forwarded to the next hop
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

func (s *Service) getWave() *waveScratch {
	s.waveMu.Lock()
	defer s.waveMu.Unlock()
	if n := len(s.waveFree); n > 0 {
		sc := s.waveFree[n-1]
		s.waveFree = s.waveFree[:n-1]
		return sc
	}
	return newWaveScratch()
}

// putWave returns scratch once nothing refers to it any more: the response
// is sealed (or, at the initiator, opened into the grants).
func (s *Service) putWave(sc *waveScratch) {
	if cap(sc.req.Items) > maxRetainedWave || cap(sc.resp.Granted) > maxRetainedWave ||
		cap(sc.sigmas) > blobLen(maxRetainedWave)*packet.MaxHops {
		return
	}
	// Drop what aliases memory the wave did not own — the received message,
	// the downstream response, the initiator's grants.
	sc.req = EEBatchRenewReq{Items: sc.req.Items[:0], Accums: sc.req.Accums[:0], Status: sc.req.Status[:0], Macs: sc.req.Macs[:0]}
	clear(sc.resp.Blobs)
	sc.resp.Blobs = sc.resp.Blobs[:0]
	sc.grant = EERGrant{}
	sc.solo.wire = nil
	clear(sc.soloResp.EncAuths)
	s.waveMu.Lock()
	s.waveFree = append(s.waveFree, sc)
	s.waveMu.Unlock()
}

// processEEBatchRenew handles the batched renewal wave decoded into sc.req at
// hop idx and returns the marshaled response. What the wave pays once: one MAC
// verification and one rate-limit token, one acquisition of the covering SegRs'
// shard locks for the whole forward pass, one nonce and one seal for the
// response pass, one update per counter. What each item pays: the shared hop
// leg — admit on the forward pass, commit at the path-wide minimum or rollback
// on the response pass — and this AS's σ. A transport-level downstream failure
// rolls back every item.
//
// The response of a processed wave is one buffer from the last hop to the
// initiator, as a solo grant's is: the last hop allocates it at its final size
// (its statuses are final, and they fix every blob's length), and every hop on
// the way back seals its blob straight into its own slot of the bytes it
// received (they belong to the caller of Transport.Call), so no hop decodes
// more than the statuses and grants, or re-encodes what other hops sealed.
func (s *Service) processEEBatchRenew(sc *waveScratch, idx int) (out []byte) {
	req := &sc.req
	n := len(req.Items)
	// answered is the final status vector once the wave is processed; reason
	// the refusal otherwise.
	var answered []uint8
	var reason string
	defer func() {
		ok, total := 0, n
		if answered != nil {
			ok, total = liveOf(answered), len(answered)
		}
		s.metrics.EERenewOK.Add(uint64(ok))
		s.metrics.EERenewFail.Add(uint64(total - ok))
		s.metrics.Trace(int64(s.clock())*1e9, telemetry.EvEERenew,
			"batch["+strconv.Itoa(n)+"]", answered != nil, reason)
	}()
	failAt := func(hop int, format string, args ...any) []byte {
		reason = fmt.Sprintf(format, args...)
		return (&EEBatchRenewResp{FailedAt: uint8(hop), Reason: reason}).Marshal()
	}
	fail := func(format string, args ...any) []byte { return failAt(idx, format, args...) }
	if n == 0 || len(req.Accums) != n || len(req.Status) != n {
		return fail("malformed batch")
	}
	// The wave is authenticated under one key: its items share their source.
	src := req.Items[0].ID.SrcAS
	for i := range req.Items {
		if req.Items[i].ID.SrcAS != src {
			return fail("malformed batch")
		}
	}
	// K_{me→Src} authenticates the wave, charged one rate-limit token (§5.3),
	// and seals every item's σ for the source.
	kc, why := s.authHop(src, req.wire[:req.bodyLen], req.Macs, idx)
	if kc == nil {
		return fail("%s", why)
	}
	cover, err := s.hopCover(req.SegIDs, req.Splits, len(req.Path), idx)
	if err != nil {
		return fail("%v", err)
	}
	// An item asking for more than σ and the data plane carry is refused, and
	// the destination vets every live item as it does a solo request.
	last := idx == len(req.Path)-1
	for i := range req.Items {
		it := &req.Items[i]
		if req.Status[i] == EEItemOK && (it.BwKbps > MaxEERKbps || last && s.vetoed(it)) {
			req.Status[i] = EEItemRefused
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
		sc.ahead = p.readAhead(req.Items, req.Status)
		for i := range req.Items {
			if req.Status[i] != EEItemOK {
				continue
			}
			it := &req.Items[i]
			states[i].grant = min(req.Accums[i], it.BwKbps)
			req.Status[i], _ = leg.admit(&p, &states[i], it.ID.Num, it.Ver, it.ExpT)
		}
	})
	leg.count()
	rollbackAll := func() {
		for i := range req.Items {
			leg.rollback(&states[i], req.Items[i].ID.Num)
		}
	}

	// Propagate this hop's outcomes into the mutable tail and forward.
	for i := range req.Items {
		req.Accums[i] = states[i].grant
	}
	// status and granted are the final outcomes, from the last hop.
	var status []uint8
	var granted []uint64
	nHops := len(req.Path)
	if idx == nHops-1 {
		// The response at its final size: OK, no reason, the outcomes, and
		// nHops blobs still empty.
		status, granted = req.Status, req.Accums
		out = make([]byte, 0, eeBatchRespFixedLen+eeBatchTailLen*n+nHops*blobLen(liveOf(status)))
		out = binary.BigEndian.AppendUint32(append(out, 1, 0, 0, 0), uint32(n))
		for i := range req.Items {
			out = append(binary.BigEndian.AppendUint64(out, granted[i]), status[i])
		}
		out = append(out, byte(nHops))
		out = out[:cap(out)]
	} else {
		sc.fwd = req.appendTail(append(sc.fwd[:0], req.wire...))
		resp := &sc.resp
		var err error
		out, err = s.forward(req.Path[idx+1].IA, sc.fwd, resp)
		if err == nil && resp.OK && !answerFits(req, resp) {
			err = errMalformed
		}
		if err != nil || !resp.OK {
			rollbackAll()
			if err != nil {
				return failAt(idx+1, "%v", err)
			}
			reason = resp.Reason
			return out
		}
		status, granted = resp.Status, resp.Granted
	}

	// Response pass: commit live items at the path-wide minimum, roll back
	// items a downstream hop killed, and seal this AS's σs of the live ones
	// into its blob under the scratch's next nonce.
	for i := range req.Items {
		if status[i] != EEItemOK {
			leg.rollback(&states[i], req.Items[i].ID.Num)
		} else {
			leg.commit(&states[i], req.Items[i].ID.Num, granted[i])
		}
	}
	size := blobLen(liveOf(status))
	off := len(out) - (nHops-idx)*size
	s.sealWave(out[off:off+size], sc, kc, idx, status, granted)
	answered = status
	return out
}

// liveOf counts the live items of a status vector.
func liveOf(status []uint8) (live int) {
	for _, st := range status {
		if st == EEItemOK {
			live++
		}
	}
	return live
}

// answerFits reports whether resp, a downstream hop's OK answer to req as this
// hop forwarded it, has the shape that answer must: an entry per item, a blob
// per hop, and no item live that this hop forwarded dead (this hop would seal
// a σ for a version it refused).
func answerFits(req *EEBatchRenewReq, resp *EEBatchRenewResp) bool {
	if len(resp.Granted) != len(req.Items) || len(resp.Blobs) != len(req.Path) {
		return false
	}
	for i, st := range resp.Status {
		if st == EEItemOK && req.Status[i] != EEItemOK {
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
	req.SegIDs, req.Splits, req.Path = chain.SegIDs, chain.Splits, chain.PathHops
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
		status := EEItemOK
		if it.BwKbps > MaxEERKbps || s.policy.AllowEER(it.SrcHost, it.ID, it.BwKbps, it.ExpT) != nil {
			status = EEItemRefused
		}
		req.Items = append(req.Items, it)
		req.Accums = append(req.Accums, p.NewBwKbps)
		req.Status = append(req.Status, status)
	}
	sc.fwd = req.appendBody(sc.fwd[:0])
	req.bodyLen = len(sc.fwd)
	hops, err := s.signPath(req.Path, sc.fwd, &req.Macs)
	if err == nil {
		sc.fwd = appendMacs(sc.fwd, req.Macs)
		req.wire = sc.fwd
		resp := &sc.resp
		if err = resp.unmarshal(s.processEEBatchRenew(sc, 0)); err == nil && !resp.OK {
			err = fmt.Errorf("%w: batch renewal failed at hop %d: %s", ErrRefused, resp.FailedAt, resp.Reason)
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
	resp := &sc.resp
	openErr := sc.openWave(hops[:], resp)
	hopsN, live, j := len(req.Path), liveOf(resp.Status), 0
	sc.auths = slices.Grow(sc.auths[:0], hopsN)[:hopsN]
	g := &sc.grant
	for i := range n {
		it := &req.Items[i]
		var err error
		switch resp.Status[i] {
		case EEItemOK:
		case EEItemStale:
			err = fmt.Errorf("%w: renewal of %s: stale at some hop and re-admission failed", ErrRefused, it.ID)
		case EEItemThrottled:
			err = fmt.Errorf("%w: renewal of %s throttled", ErrRefused, it.ID)
		default:
			err = fmt.Errorf("%w: renewal of %s refused", ErrRefused, it.ID)
			if it.BwKbps > MaxEERKbps {
				err = fmt.Errorf("%w: %w", err, ErrBandwidthRange)
			}
		}
		if err != nil {
			held(i)
			yield(i, nil, err)
			continue
		}
		s.policy.SettleEER(it.SrcHost, it.ID, resp.Granted[i], it.ExpT)
		if openErr != nil {
			yield(i, nil, openErr)
			continue
		}
		// The j-th live item's σ from hop h is the j-th of hop h's blob.
		*g = EERGrant{ID: it.ID, Path: chain.Path, PathHops: chain.PathHops, Splits: chain.Splits, SegIDs: chain.SegIDs, HopAuths: sc.auths}
		g.Res, g.EER = it.infos(resp.Granted[i])
		for h := range g.HopAuths {
			copy(g.HopAuths[h][:], sc.sigmas[(h*live+j)*cryptoutil.KeySize:])
		}
		j++
		yield(i, g, nil)
	}
}
