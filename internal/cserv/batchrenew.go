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

// Wire sizes of the per-item entries. Every count a decoder reads is checked
// against the bytes that remain divided by these before anything is sized by
// it: the counts arrive before any MAC can be verified.
const (
	eeBatchItemLen = 12 + 2 + 8 + 4 + 4 + 4 // one Items entry of the MAC-covered body
	eeBatchTailLen = 8 + 1                  // one Accums/Status (or Granted/Status) entry
	eeBatchAuthMin = 2                      // one EncAuths entry: its length prefix
)

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

// Body returns the MAC-covered canonical encoding.
func (r *EEBatchRenewReq) Body() []byte {
	return r.appendBody(make([]byte, 0, 64+16*len(r.Path)+eeBatchItemLen*len(r.Items)))
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

// Marshal appends the MACs and the mutable per-item tail to the body.
func (r *EEBatchRenewReq) Marshal() []byte {
	return r.appendTail(appendMacs(r.Body(), r.Macs))
}

// UnmarshalEEBatchRenewReq parses an EEBatchRenewReq.
func UnmarshalEEBatchRenewReq(data []byte) (*EEBatchRenewReq, error) {
	r := &EEBatchRenewReq{}
	if err := r.unmarshal(data); err != nil {
		return nil, err
	}
	return r, nil
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
	r.Macs = d.macs(nil)
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
// back every item. EncAuths is item-major flattened: EncAuths[i*len(Path)+h]
// is AS h's sealed hop authenticator for item i (empty for dead items).
type EEBatchRenewResp struct {
	OK       bool
	FailedAt uint8
	Reason   string
	Granted  []uint64
	Status   []uint8
	EncAuths [][]byte
}

// Marshal encodes the response into one buffer of exactly its size.
func (r *EEBatchRenewResp) Marshal() []byte {
	size := 2 + 2 + len(r.Reason) + 4 + eeBatchTailLen*len(r.Granted) + 4 + eeBatchAuthMin*len(r.EncAuths)
	for _, ea := range r.EncAuths {
		size += len(ea)
	}
	b := append(make([]byte, 0, size), boolByte(r.OK), r.FailedAt)
	b = appendString(b, r.Reason)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Granted)))
	for i := range r.Granted {
		b = binary.BigEndian.AppendUint64(b, r.Granted[i])
		b = append(b, r.Status[i])
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.EncAuths)))
	for _, ea := range r.EncAuths {
		b = binary.BigEndian.AppendUint16(b, uint16(len(ea)))
		b = append(b, ea...)
	}
	return b
}

// UnmarshalEEBatchRenewResp parses an EEBatchRenewResp. The EncAuths of the
// result alias data: they are valid until the caller modifies data, and
// whatever outlives it (a grant's hop authenticators) is copied out.
func UnmarshalEEBatchRenewResp(data []byte) (*EEBatchRenewResp, error) {
	r := &EEBatchRenewResp{}
	if err := r.unmarshal(data); err != nil {
		return nil, err
	}
	return r, nil
}

// unmarshal decodes data into r, reusing the capacity of r's slices.
func (r *EEBatchRenewResp) unmarshal(data []byte) error {
	d := decoder{buf: data}
	r.OK = d.u8() == 1
	r.FailedAt = d.u8()
	r.Reason = d.str()
	n := int(d.u32())
	if d.err == nil && n > len(d.buf)/eeBatchTailLen {
		return ErrTruncated
	}
	r.Granted, r.Status = slices.Grow(r.Granted[:0], n), slices.Grow(r.Status[:0], n)
	for i := 0; i < n && d.err == nil; i++ {
		r.Granted = append(r.Granted, d.u64())
		r.Status = append(r.Status, d.u8())
	}
	na := int(d.u32())
	if d.err == nil && na > len(d.buf)/eeBatchAuthMin {
		return ErrTruncated
	}
	r.EncAuths = slices.Grow(r.EncAuths[:0], na)
	for i := 0; i < na && d.err == nil; i++ {
		r.EncAuths = append(r.EncAuths, d.take(int(d.u16())))
	}
	return d.err
}

// waveScratch is the working memory of one batch renewal at one service: the
// decoded request and downstream response, the per-item states, and the flat
// buffers this hop encodes and seals into. A service keeps its idle scratch
// (getWave/putWave), so a steady renewal storm allocates per wave only what
// leaves the handler — the marshaled response, the grants. A solo request
// (tags 4/5) is a wave of one as far as scratch goes: solo and soloResp are its
// decoded forms, whose slices own their memory, and it shares fwd, nonces, ad
// and sigma.
type waveScratch struct {
	req      EEBatchRenewReq
	resp     EEBatchRenewResp
	solo     EESetupReq
	soloResp EESetupResp
	states   []hopItem
	fwd      []byte // the request as forwarded to the next hop
	sealed   []byte // this hop's sealed authenticators, back to back
	nonces   []byte // their nonces, drawn in one read
	ad       []byte
	sigma    cryptoutil.Key
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
	return &waveScratch{}
}

// putWave returns scratch once nothing refers to it any more: the response
// is marshaled (or, at the initiator, opened into the grants).
func (s *Service) putWave(sc *waveScratch) {
	if cap(sc.req.Items) > maxRetainedWave || cap(sc.resp.EncAuths) > maxRetainedWave*packet.MaxHops {
		return
	}
	// Drop what aliases memory the wave did not own — the received message,
	// the downstream response, the initiator's grants.
	sc.req = EEBatchRenewReq{Items: sc.req.Items[:0], Accums: sc.req.Accums[:0], Status: sc.req.Status[:0]}
	clear(sc.resp.EncAuths)
	sc.resp.EncAuths = sc.resp.EncAuths[:0]
	sc.solo.wire = nil
	clear(sc.soloResp.EncAuths)
	s.waveMu.Lock()
	s.waveFree = append(s.waveFree, sc)
	s.waveMu.Unlock()
}

// processEEBatchRenew handles the batched renewal wave decoded into sc.req at
// hop idx. What the wave pays once: one MAC verification and one rate-limit
// token, one acquisition of the covering SegRs' shard locks for the whole
// forward pass, one sealer and one read of nonces for the response pass, one
// update per counter. What each item pays: the shared hop leg — admit on the
// forward pass, commit at the path-wide minimum or rollback on the response
// pass — and the seal of this AS's hop authenticator. A transport-level
// downstream failure rolls back every item. The result may point into sc.
func (s *Service) processEEBatchRenew(sc *waveScratch, idx int) (resp_ *EEBatchRenewResp) {
	req := &sc.req
	n := len(req.Items)
	defer func() {
		ok, total := 0, n
		if resp_.OK {
			total = len(resp_.Status)
			for _, st := range resp_.Status {
				if st == EEItemOK {
					ok++
				}
			}
		}
		s.metrics.EERenewOK.Add(uint64(ok))
		s.metrics.EERenewFail.Add(uint64(total - ok))
		s.metrics.Trace(int64(s.clock())*1e9, telemetry.EvEERenew,
			"batch["+strconv.Itoa(len(req.Items))+"]", resp_.OK, resp_.Reason)
	}()
	fail := func(format string, args ...any) *EEBatchRenewResp {
		return &EEBatchRenewResp{FailedAt: uint8(idx), Reason: fmt.Sprintf(format, args...)}
	}
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
	now := s.clock()
	// K_{me→Src} both authenticates the wave (§4.5) and seals every item's σ
	// for the source (Eq. 5): derived on the fly, once.
	key, _ := s.engine.Level1(src, now)
	kc := s.cryptoFor(key)
	if idx > 0 {
		if err := kc.verify(req.wire[:req.bodyLen], req.Macs, idx); err != nil {
			s.metrics.AuthFailures.Add(1)
			return fail("authentication: %v", err)
		}
		// One rate-limit token per wave: the batch is one control message,
		// and per-item charging would make batching pointless under §5.3's
		// per-AS budget.
		if !s.rate.Allow(src, now) {
			s.metrics.RateLimited.Add(1)
			return fail("rate limited")
		}
	}
	cover, err := s.hopCover(req.SegIDs, req.Splits, len(req.Path), idx)
	if err != nil {
		return fail("%v", err)
	}
	hop := req.Path[idx]

	sc.states = slices.Grow(sc.states[:0], n)[:n]
	clear(sc.states)
	states := sc.states
	// Forward pass: every live item's leg in wave order, under one acquisition
	// of the covering SegRs' shard locks. Each item settles before the next one
	// starts, so a later item sees the demand per-EER processing would show it.
	leg := hopLeg{s: s, hopCover: cover, src: src, renewal: true}
	s.cp.withPath(cover.segs(), func(p eerPath) {
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
	nAuth := n * len(req.Path)
	resp := &sc.resp
	if idx == len(req.Path)-1 {
		*resp = EEBatchRenewResp{
			OK:       true,
			Granted:  append(resp.Granted[:0], req.Accums...),
			Status:   append(resp.Status[:0], req.Status...),
			EncAuths: slices.Grow(resp.EncAuths[:0], nAuth)[:nAuth],
		}
		clear(resp.EncAuths)
	} else {
		next := req.Path[idx+1].IA
		sc.fwd = req.appendTail(append(sc.fwd[:0], req.wire...))
		data, err := s.transport.Call(next, sc.fwd)
		if err != nil {
			resp = &EEBatchRenewResp{FailedAt: uint8(idx + 1), Reason: fmt.Sprintf("transport: %v", err)}
		} else if err = resp.unmarshal(data); err != nil {
			resp = &EEBatchRenewResp{FailedAt: uint8(idx + 1), Reason: fmt.Sprintf("response: %v", err)}
		}
	}
	if !resp.OK || len(resp.Granted) != n || len(resp.EncAuths) != nAuth {
		rollbackAll()
		if resp.OK {
			return fail("malformed downstream response")
		}
		return resp
	}

	// Response pass: commit live items at the path-wide minimum, roll back
	// items a downstream hop killed, and seal this AS's hop authenticators —
	// into one flat buffer, each under its own fresh random nonce, all of
	// them drawn in one read.
	sc.nonces = slices.Grow(sc.nonces[:0], n*cryptoutil.NonceSize)[:n*cryptoutil.NonceSize]
	if err := cryptoutil.RandomNonces(sc.nonces); err != nil {
		rollbackAll()
		return fail("seal: %v", err)
	}
	sc.sealed = slices.Grow(sc.sealed[:0], n*sealedAuthLen)
	for i := range req.Items {
		it := &req.Items[i]
		if resp.Status[i] != EEItemOK {
			leg.rollback(&states[i], it.ID.Num)
			continue
		}
		final := resp.Granted[i]
		leg.commit(&states[i], it.ID.Num, final)
		res := packet.ResInfo{
			SrcAS:  it.ID.SrcAS,
			ResID:  it.ID.Num,
			BwKbps: uint32(final),
			ExpT:   it.ExpT,
			Ver:    it.Ver,
		}
		eerInfo := packet.EERInfo{SrcHost: it.SrcHost, DstHost: it.DstHost}
		sc.sigma = s.hopAuth(&res, &eerInfo, packet.HopField{In: hop.In, Eg: hop.Eg})
		sc.ad = eerAuthAD(sc.ad[:0], it.ID, uint8(idx))
		off := len(sc.sealed)
		sc.sealed = kc.sealer.SealTo(sc.sealed, sc.nonces[i*cryptoutil.NonceSize:], sc.sigma[:], sc.ad)
		resp.EncAuths[i*len(req.Path)+idx] = sc.sealed[off:len(sc.sealed):len(sc.sealed)]
	}
	return resp
}

// RenewEERBatch renews a wave of EERs that share one chain (same SegIDs,
// Splits, and Path — callers group by chain signature, see KeeperFleet) in a
// single batched round trip. newBwKbps[i] is the bandwidth requested for
// prevs[i]. It returns one grant or one error per item; a transport-level
// batch failure yields the same error for every item.
func (s *Service) RenewEERBatch(prevs []*EERGrant, newBwKbps []uint64) ([]*EERGrant, []error) {
	grants := make([]*EERGrant, len(prevs))
	errs := make([]error, len(prevs))
	if len(prevs) == 0 {
		return grants, errs
	}
	if len(newBwKbps) != len(prevs) {
		for i := range errs {
			errs[i] = fmt.Errorf("cserv: RenewEERBatch: %d bandwidths for %d items", len(newBwKbps), len(prevs))
		}
		return grants, errs
	}
	now := s.clock()
	sc := s.getWave()
	defer s.putWave(sc)
	req := &sc.req
	req.SegIDs, req.Splits, req.Path = prevs[0].SegIDs, prevs[0].Splits, prevs[0].PathHops
	// held settles item i with the host policy at what its EER held before.
	held := func(i int) {
		p := prevs[i]
		s.policy.SettleEER(p.EER.SrcHost, p.ID, uint64(p.Res.BwKbps), p.Res.ExpT)
	}
	for i, p := range prevs {
		it := EEBatchItem{
			ID:      p.ID,
			Ver:     p.Res.Ver + 1,
			BwKbps:  newBwKbps[i],
			ExpT:    now + reservation.EERLifetimeSeconds,
			SrcHost: p.EER.SrcHost,
			DstHost: p.EER.DstHost,
		}
		// Source-AS policy, as at hop 0 of a solo request: an item it refuses
		// travels as refused, and every hop skips it.
		status := EEItemOK
		if s.policy.AllowEER(it.SrcHost, it.ID, it.BwKbps, it.ExpT) != nil {
			status = EEItemRefused
		}
		req.Items = append(req.Items, it)
		req.Accums = append(req.Accums, newBwKbps[i])
		req.Status = append(req.Status, status)
	}
	failAll := func(err error) ([]*EERGrant, []error) {
		for i := range errs {
			errs[i] = err
			held(i)
		}
		return grants, errs
	}
	// Level-1 keys — hence request MACs and sealers — are fetched once per
	// hop, not once per item.
	hops := make([]*keyCrypto, len(req.Path))
	for h, ph := range req.Path {
		key, err := s.hopKey(ph.IA, now)
		if err != nil {
			return failAll(err)
		}
		hops[h] = s.cryptoFor(key)
	}
	sc.fwd = req.appendBody(sc.fwd[:0])
	req.bodyLen = len(sc.fwd)
	req.Macs = make([][cryptoutil.MACSize]byte, len(hops))
	for h, kc := range hops {
		kc.cmac.SumInto(&req.Macs[h], sc.fwd)
	}
	sc.fwd = appendMacs(sc.fwd, req.Macs)
	req.wire = sc.fwd
	resp := s.processEEBatchRenew(sc, 0)
	if !resp.OK {
		return failAll(fmt.Errorf("%w: batch renewal failed at hop %d: %s", ErrRefused, resp.FailedAt, resp.Reason))
	}
	// Decrypt the hop authenticators (Eq. 5) of the surviving items.
	path := HopFields(req.Path)
	for i, p := range prevs {
		if resp.Status[i] != EEItemOK {
			held(i)
		}
		switch resp.Status[i] {
		case EEItemOK:
		case EEItemStale:
			errs[i] = fmt.Errorf("%w: renewal of %s: stale at some hop and re-admission failed", ErrRefused, p.ID)
			continue
		case EEItemThrottled:
			errs[i] = fmt.Errorf("%w: renewal of %s throttled", ErrRefused, p.ID)
			continue
		default:
			errs[i] = fmt.Errorf("%w: renewal of %s refused", ErrRefused, p.ID)
			continue
		}
		it := &req.Items[i]
		s.policy.SettleEER(it.SrcHost, it.ID, resp.Granted[i], it.ExpT)
		g := &EERGrant{
			ID: p.ID,
			Res: packet.ResInfo{
				SrcAS:  p.ID.SrcAS,
				ResID:  p.ID.Num,
				BwKbps: uint32(resp.Granted[i]),
				ExpT:   it.ExpT,
				Ver:    it.Ver,
			},
			EER:      packet.EERInfo{SrcHost: it.SrcHost, DstHost: it.DstHost},
			Path:     path,
			PathHops: p.PathHops,
			Splits:   p.Splits,
			SegIDs:   p.SegIDs,
			HopAuths: make([]cryptoutil.Key, len(hops)),
		}
		grants[i] = g
		for h, kc := range hops {
			sc.ad = eerAuthAD(sc.ad[:0], p.ID, uint8(h))
			if oerr := openHopAuth(kc.sealer, &g.HopAuths[h], resp.EncAuths[i*len(hops)+h], sc.ad); oerr != nil {
				grants[i], errs[i] = nil, fmt.Errorf("cserv: opening hop authenticator %d of %s: %w", h, p.ID, oerr)
				break
			}
		}
	}
	return grants, errs
}
