// Package cserv implements the Colibri service (CServ), the per-AS
// control-plane component of §3.2–§4.4: it initiates, admits, renews, and
// activates segment reservations; admits end-to-end reservations over them;
// authenticates every control-plane message with DRKey-derived symmetric
// keys; registers and disseminates SegRs (Appendix C); and rate-limits
// requests per source AS.
//
// Inter-AS communication is synchronous request/response over a Transport
// (the paper uses gRPC over QUIC): a setup request chains through the
// on-path CServs and the response returns through the same chain, letting
// every AS confirm or roll back its temporary reservation — the
// "transactional" behaviour of §3.3.
package cserv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// Wire format: all integers big-endian; slices length-prefixed with uint16.
// Every request carries one 16-byte CMAC per on-path AS over the request
// body (§4.5: MAC_{K_{AS_i→SrcAS}}(payload)), appended after the body.

// Message type tags.
const (
	tagSegSetup     = 1
	tagSegRenew     = 2
	tagSegActivate  = 3
	tagEESetup      = 4
	tagEERenew      = 5
	tagEEBatchRenew = 7
)

// Errors of the wire layer.
var (
	ErrTruncated = errors.New("cserv: truncated message")
	ErrBadTag    = errors.New("cserv: unexpected message tag")
	// ErrNotCanonical rejects a message that decodes but is not what its own
	// re-encoding would be (see EESetupReq.unmarshal).
	ErrNotCanonical = errors.New("cserv: message is not in canonical form")
)

// PathHop is one AS of a request path with its local interfaces.
type PathHop struct {
	IA     topology.IA
	In, Eg topology.IfID
}

// HopsFromSegment converts a segment to request path hops.
func HopsFromSegment(seg *segment.Segment) []PathHop {
	hops := make([]PathHop, seg.Len())
	for i, h := range seg.Hops {
		hops[i] = PathHop{IA: h.IA, In: h.In, Eg: h.Eg}
	}
	return hops
}

// HopFields converts path hops to packet hop fields.
func HopFields(hops []PathHop) []packet.HopField {
	out := make([]packet.HopField, len(hops))
	for i, h := range hops {
		out[i] = packet.HopField{In: h.In, Eg: h.Eg}
	}
	return out
}

// SegSetupReq is the segment-reservation setup request (§4.4). The same
// structure carries renewals (tag differs) since renewals re-negotiate the
// same fields over the existing reservation.
type SegSetupReq struct {
	ID      reservation.ID
	SegType segment.Type
	Path    []PathHop
	MinKbps uint64
	MaxKbps uint64
	ExpT    uint32
	Ver     uint16
	// Renewal marks this request as a renewal of an existing SegR.
	Renewal bool
	// Macs[i] authenticates Body() towards Path[i].IA.
	Macs [][cryptoutil.MACSize]byte
	// AccumKbps is the running minimum of the grants of the ASes traversed
	// so far ("it then updates the request with the granted amount of
	// bandwidth and forwards it", §3.3). It is AS-added data and therefore
	// outside the source's MACs; in the paper each AS authenticates its own
	// additions with its DRKey key, which the synchronous response chain
	// models here.
	AccumKbps uint64
}

// Body returns the MAC-covered canonical encoding.
func (r *SegSetupReq) Body() []byte {
	b := make([]byte, 0, 64+8*len(r.Path))
	tag := byte(tagSegSetup)
	if r.Renewal {
		tag = tagSegRenew
	}
	b = append(b, tag)
	b = appendID(b, r.ID)
	b = append(b, byte(r.SegType), boolByte(r.Renewal))
	b = appendHops(b, r.Path)
	b = binary.BigEndian.AppendUint64(b, r.MinKbps)
	b = binary.BigEndian.AppendUint64(b, r.MaxKbps)
	b = binary.BigEndian.AppendUint32(b, r.ExpT)
	b = binary.BigEndian.AppendUint16(b, r.Ver)
	return b
}

// Marshal appends the MACs and the mutable accumulator to the body.
func (r *SegSetupReq) Marshal() []byte {
	return binary.BigEndian.AppendUint64(appendMacs(r.Body(), r.Macs), r.AccumKbps)
}

// UnmarshalSegSetupReq parses a SegSetupReq.
func UnmarshalSegSetupReq(data []byte) (*SegSetupReq, error) {
	d := decoder{buf: data}
	tag := d.u8()
	r := &SegSetupReq{}
	r.ID = d.id()
	r.SegType = segment.Type(d.u8())
	r.Renewal = d.u8() == 1
	r.Path = d.hops(nil)
	r.MinKbps = d.u64()
	r.MaxKbps = d.u64()
	r.ExpT = d.u32()
	r.Ver = d.u16()
	r.Macs = d.macs(nil)
	r.AccumKbps = d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if tag != tagSegSetup && tag != tagSegRenew {
		return nil, ErrBadTag
	}
	return r, nil
}

// SegSetupResp travels the reverse path. Grants accumulate per AS on the
// forward pass; on success FinalKbps is the minimum and Tokens carries the
// Eq. (3) token of each AS, ordered like the path.
type SegSetupResp struct {
	OK        bool
	FailedAt  uint8 // path index of the refusing AS (when !OK)
	Reason    string
	FinalKbps uint64
	Tokens    [][packet.HVFLen]byte
}

// Marshal encodes the response.
func (r *SegSetupResp) Marshal() []byte {
	b := []byte{boolByte(r.OK), r.FailedAt}
	b = appendString(b, r.Reason)
	b = binary.BigEndian.AppendUint64(b, r.FinalKbps)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Tokens)))
	for _, tok := range r.Tokens {
		b = append(b, tok[:]...)
	}
	return b
}

// UnmarshalSegSetupResp parses a SegSetupResp.
func UnmarshalSegSetupResp(data []byte) (*SegSetupResp, error) {
	d := decoder{buf: data}
	r := &SegSetupResp{}
	r.OK = d.u8() == 1
	r.FailedAt = d.u8()
	r.Reason = d.str()
	r.FinalKbps = d.u64()
	n := int(d.u16())
	if d.err == nil && n > packet.MaxHops {
		return nil, fmt.Errorf("cserv: %d tokens exceeds maximum", n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		var tok [packet.HVFLen]byte
		d.bytes(tok[:])
		r.Tokens = append(r.Tokens, tok)
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// SegActivateReq switches a SegR to its pending version (§4.2).
type SegActivateReq struct {
	ID   reservation.ID
	Ver  uint16
	Path []PathHop
	Macs [][cryptoutil.MACSize]byte
}

// Body returns the MAC-covered canonical encoding.
func (r *SegActivateReq) Body() []byte {
	b := []byte{tagSegActivate}
	b = appendID(b, r.ID)
	b = binary.BigEndian.AppendUint16(b, r.Ver)
	b = appendHops(b, r.Path)
	return b
}

// Marshal appends the MACs to the body.
func (r *SegActivateReq) Marshal() []byte { return appendMacs(r.Body(), r.Macs) }

// UnmarshalSegActivateReq parses a SegActivateReq.
func UnmarshalSegActivateReq(data []byte) (*SegActivateReq, error) {
	d := decoder{buf: data}
	if d.u8() != tagSegActivate {
		return nil, ErrBadTag
	}
	r := &SegActivateReq{}
	r.ID = d.id()
	r.Ver = d.u16()
	r.Path = d.hops(nil)
	r.Macs = d.macs(nil)
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// EESetupReq is the end-to-end-reservation setup request (§4.4). SegIDs are
// the underlying segment reservations; Splits are the path indices of the
// transfer ASes joining them (len(SegIDs)-1 entries).
type EESetupReq struct {
	ID      reservation.ID
	SegIDs  []reservation.ID
	Splits  []uint8
	Path    []PathHop
	BwKbps  uint64
	ExpT    uint32
	Ver     uint16
	SrcHost uint32
	DstHost uint32
	Renewal bool
	Macs    [][cryptoutil.MACSize]byte
	// AccumKbps mirrors SegSetupReq.AccumKbps for EER requests.
	AccumKbps uint64

	// wire is the message this request was decoded from (at the initiator:
	// encoded into) and bodyLen the MAC-covered share of it. The decoder
	// accepts only what Marshal would produce, so wire[:bodyLen] is Body(): a
	// hop authenticates the bytes it received and forwards a copy of them with
	// the accumulator overwritten, instead of encoding the request again. At a
	// handler wire aliases the received message, which is read-only to it.
	wire    []byte
	bodyLen int
}

// Wire sizes of an EESetupReq's parts.
const (
	idLen         = 8 + 4     // a reservation.ID
	hopLen        = 8 + 2 + 2 // a PathHop
	eeReqFixedLen = 1 + idLen + 1 + 1 + 2 + 8 + 4 + 2 + 4 + 4 + 1
)

func (r *EESetupReq) bodySize() int {
	return eeReqFixedLen + idLen*len(r.SegIDs) + len(r.Splits) + hopLen*len(r.Path)
}

// Body returns the MAC-covered canonical encoding.
func (r *EESetupReq) Body() []byte { return r.appendBody(make([]byte, 0, r.bodySize())) }

func (r *EESetupReq) appendBody(b []byte) []byte {
	tag := byte(tagEESetup)
	if r.Renewal {
		tag = tagEERenew
	}
	b = appendID(append(b, tag), r.ID)
	b = append(b, byte(len(r.SegIDs)))
	for _, id := range r.SegIDs {
		b = appendID(b, id)
	}
	b = append(b, byte(len(r.Splits)))
	b = append(b, r.Splits...)
	b = appendHops(b, r.Path)
	b = binary.BigEndian.AppendUint64(b, r.BwKbps)
	b = binary.BigEndian.AppendUint32(b, r.ExpT)
	b = binary.BigEndian.AppendUint16(b, r.Ver)
	b = binary.BigEndian.AppendUint32(b, r.SrcHost)
	b = binary.BigEndian.AppendUint32(b, r.DstHost)
	return append(b, boolByte(r.Renewal))
}

// appendTail appends what follows the body: the MACs and the mutable
// accumulator.
func (r *EESetupReq) appendTail(b []byte) []byte {
	return binary.BigEndian.AppendUint64(appendMacs(b, r.Macs), r.AccumKbps)
}

// Marshal appends the MACs and the mutable accumulator to the body.
func (r *EESetupReq) Marshal() []byte {
	size := r.bodySize() + 2 + cryptoutil.MACSize*len(r.Macs) + 8
	return r.appendTail(r.appendBody(make([]byte, 0, size)))
}

// UnmarshalEESetupReq parses an EESetupReq.
func UnmarshalEESetupReq(data []byte) (*EESetupReq, error) {
	r := &EESetupReq{}
	if err := r.unmarshal(data); err != nil {
		return nil, err
	}
	return r, nil
}

// unmarshal decodes data into r, reusing the capacity of r's slices. It is
// canonical-only: a message whose re-encoding would differ from data — the
// tag and the Renewal flag disagree, the flag is neither 0 nor 1, bytes
// follow the accumulator — is an error, not something to normalise, because
// the handler authenticates and forwards data itself.
func (r *EESetupReq) unmarshal(data []byte) error {
	d := decoder{buf: data}
	tag := d.u8()
	r.ID = d.id()
	r.SegIDs = r.SegIDs[:0]
	nseg := int(d.u8())
	if d.err == nil && nseg > len(d.buf)/idLen {
		return ErrTruncated
	}
	for i := 0; i < nseg && d.err == nil; i++ {
		r.SegIDs = append(r.SegIDs, d.id())
	}
	r.Splits = append(r.Splits[:0], d.take(int(d.u8()))...)
	r.Path = d.hops(r.Path[:0])
	r.BwKbps = d.u64()
	r.ExpT = d.u32()
	r.Ver = d.u16()
	r.SrcHost = d.u32()
	r.DstHost = d.u32()
	flag := d.u8()
	r.Renewal = flag == 1
	r.wire, r.bodyLen = data, len(data)-len(d.buf)
	r.Macs = d.macs(r.Macs[:0])
	r.AccumKbps = d.u64()
	switch {
	case d.err != nil:
		return d.err
	case tag != tagEESetup && tag != tagEERenew:
		return ErrBadTag
	case flag > 1 || r.Renewal != (tag == tagEERenew) || len(d.buf) != 0:
		return ErrNotCanonical
	}
	return nil
}

// EESetupResp travels the reverse path; on success, EncAuths[i] carries
// AEAD_{K_{AS_i→SrcAS}}(σ_i) for the source AS's gateway (Eq. 5).
type EESetupResp struct {
	OK        bool
	FailedAt  uint8
	Reason    string
	FinalKbps uint64
	EncAuths  [][]byte
}

// eeRespFixedLen is the size of an EESetupResp without its reason and sealed
// authenticators: OK, FailedAt, the reason's length, FinalKbps, the count.
const eeRespFixedLen = 2 + 2 + 8 + 2

// Marshal encodes the response into one buffer of exactly its size.
func (r *EESetupResp) Marshal() []byte {
	size := eeRespFixedLen + len(r.Reason) + 2*len(r.EncAuths)
	for _, ea := range r.EncAuths {
		size += len(ea)
	}
	b := append(make([]byte, 0, size), boolByte(r.OK), r.FailedAt)
	b = appendString(b, r.Reason)
	b = binary.BigEndian.AppendUint64(b, r.FinalKbps)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.EncAuths)))
	for _, ea := range r.EncAuths {
		b = binary.BigEndian.AppendUint16(b, uint16(len(ea)))
		b = append(b, ea...)
	}
	return b
}

// UnmarshalEESetupResp parses an EESetupResp. The EncAuths of the result
// alias data: they are valid until the caller modifies data.
func UnmarshalEESetupResp(data []byte) (*EESetupResp, error) {
	r := &EESetupResp{}
	if err := r.unmarshal(data); err != nil {
		return nil, err
	}
	return r, nil
}

// unmarshal decodes data into r, reusing the capacity of r.EncAuths. Like the
// request decoder it accepts only what Marshal produces, and no more
// authenticators than a path has hops.
func (r *EESetupResp) unmarshal(data []byte) error {
	d := decoder{buf: data}
	ok := d.u8()
	r.OK = ok == 1
	r.FailedAt = d.u8()
	r.Reason = d.str()
	r.FinalKbps = d.u64()
	n := int(d.u16())
	if d.err == nil && n > packet.MaxHops {
		return fmt.Errorf("cserv: %d hop authenticators exceeds maximum", n)
	}
	r.EncAuths = r.EncAuths[:0]
	for i := 0; i < n && d.err == nil; i++ {
		r.EncAuths = append(r.EncAuths, d.take(int(d.u16())))
	}
	switch {
	case d.err != nil:
		return d.err
	case ok > 1 || len(d.buf) != 0:
		return ErrNotCanonical
	}
	return nil
}

// --- encoding helpers ---

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendID(b []byte, id reservation.ID) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(id.SrcAS))
	return binary.BigEndian.AppendUint32(b, id.Num)
}

func appendHops(b []byte, hops []PathHop) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(hops)))
	for _, h := range hops {
		b = binary.BigEndian.AppendUint64(b, uint64(h.IA))
		b = binary.BigEndian.AppendUint16(b, uint16(h.In))
		b = binary.BigEndian.AppendUint16(b, uint16(h.Eg))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	if len(s) > 1<<16-1 {
		s = s[:1<<16-1]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendMacs(b []byte, macs [][cryptoutil.MACSize]byte) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(macs)))
	for _, m := range macs {
		b = append(b, m[:]...)
	}
	return b
}

// decoder is a cursor with sticky error.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) < n {
		d.err = ErrTruncated
		return false
	}
	return true
}

func (d *decoder) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) bytes(dst []byte) {
	if !d.need(len(dst)) {
		return
	}
	copy(dst, d.buf)
	d.buf = d.buf[len(dst):]
}

// take returns the next n bytes without copying them: the result aliases the
// message (capacity-bounded, so an append cannot write into what follows).
// nil when n is 0 or the message is short.
func (d *decoder) take(n int) []byte {
	if n == 0 || !d.need(n) {
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) str() string {
	n := int(d.u16())
	if !d.need(n) {
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) id() reservation.ID {
	return reservation.ID{SrcAS: topology.IA(d.u64()), Num: d.u32()}
}

// hops appends the hops to dst (nil for a fresh slice), which it sizes before
// the first of them.
func (d *decoder) hops(dst []PathHop) []PathHop {
	n := int(d.u16())
	if n > packet.MaxHops {
		d.err = fmt.Errorf("cserv: %d hops exceeds maximum", n)
		return dst
	}
	hops := slices.Grow(dst, n)
	for i := 0; i < n && d.err == nil; i++ {
		hops = append(hops, PathHop{
			IA: topology.IA(d.u64()),
			In: topology.IfID(d.u16()),
			Eg: topology.IfID(d.u16()),
		})
	}
	return hops
}

// macs appends the MACs to dst like hops.
func (d *decoder) macs(dst [][cryptoutil.MACSize]byte) [][cryptoutil.MACSize]byte {
	n := int(d.u16())
	if n > packet.MaxHops {
		d.err = fmt.Errorf("cserv: %d MACs exceeds maximum", n)
		return dst
	}
	macs := slices.Grow(dst, n)
	for i := 0; i < n && d.err == nil; i++ {
		var m [cryptoutil.MACSize]byte
		d.bytes(m[:])
		macs = append(macs, m)
	}
	return macs
}
