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
// body (§4.5: MAC_{K_{AS_i→SrcAS}}(payload)), appended after the body. The
// EER messages (tags 4, 5, 7 and their responses) are encoded from the
// structs here and read through the views of views.go.

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
	// re-encoding would be (see eeReqView.load).
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

	// wire is the message this request was decoded from — at the initiator
	// too, which runs hop 0 on its own encoding — and bodyLen the MAC-covered
	// share of it, which a hop authenticates: the decoder accepts only what
	// Marshal would produce, so wire[:bodyLen] is Body().
	wire    []byte
	bodyLen int
}

func (r *SegSetupReq) appendBody(b []byte) []byte {
	tag := byte(tagSegSetup)
	if r.Renewal {
		tag = tagSegRenew
	}
	b = appendID(append(b, tag), r.ID)
	b = append(b, byte(r.SegType), boolByte(r.Renewal))
	b = appendHops(b, r.Path)
	b = binary.BigEndian.AppendUint64(b, r.MinKbps)
	b = binary.BigEndian.AppendUint64(b, r.MaxKbps)
	b = binary.BigEndian.AppendUint32(b, r.ExpT)
	return binary.BigEndian.AppendUint16(b, r.Ver)
}

// UnmarshalSegSetupReq parses a SegSetupReq, accepting only what Marshal
// produces (ErrNotCanonical).
//
//colibri:allow(testonly) — core's TestShortResponseDoesNotPanic reads the SegR setups it answers falsely
func UnmarshalSegSetupReq(data []byte) (*SegSetupReq, error) { return decodeNew[SegSetupReq](data) }

// unmarshal decodes data into r, reusing the capacity of r's slices; r.wire
// aliases data.
func (r *SegSetupReq) unmarshal(data []byte) error {
	d := decoder{buf: data}
	tag := d.u8()
	r.ID = d.id()
	r.SegType = segment.Type(d.u8())
	flag := d.u8()
	r.Renewal = flag == 1
	r.Path = d.hops(r.Path[:0])
	r.MinKbps = d.u64()
	r.MaxKbps = d.u64()
	r.ExpT = d.u32()
	r.Ver = d.u16()
	r.wire, r.bodyLen = data, len(data)-len(d.buf)
	r.Macs = d.macs(r.Macs[:0])
	r.AccumKbps = d.u64()
	switch {
	case d.err != nil:
		return d.err
	case tag != tagSegSetup && tag != tagSegRenew:
		return ErrBadTag
	case flag > 1 || r.Renewal != (tag == tagSegRenew) || len(d.buf) != 0:
		return ErrNotCanonical
	}
	return nil
}

// A SegR answer (SegSetupResp) travels the reverse path of a setup, renewal
// or activation: the refusal, FailedAt, FinalKbps, the count of tokens, and on
// a setup's or renewal's grant the Eq. (3) token of each AS, ordered like the
// path. segRespFixedLen is its size without the tokens.
const segRespFixedLen = 1 + 1 + 8 + 2

// segResp returns a SegR answer with n token slots, still empty: the refusal
// code at hop at, or a grant of final.
func segResp(code Refusal, at int, final uint64, n int) []byte {
	b := make([]byte, segRespFixedLen+packet.HVFLen*n)
	b[0], b[1] = byte(code), uint8(at)
	binary.BigEndian.PutUint64(b[2:], final)
	binary.BigEndian.PutUint16(b[10:], uint16(n))
	return b
}

// segRespView is a checked SegSetupResp, read where it lies.
type segRespView struct {
	msg []byte
	n   int
}

// load checks data as a SegSetupResp — no more tokens than a path has hops,
// all of them there, the refusal of the vocabulary and nothing after the last
// token — and aliases it.
func (v *segRespView) load(data []byte) error {
	if len(data) < segRespFixedLen {
		return ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(data[10:]))
	switch size := segRespFixedLen + packet.HVFLen*n; {
	case n > packet.MaxHops:
		return fmt.Errorf("cserv: %d tokens exceeds maximum", n)
	case len(data) < size:
		return ErrTruncated
	case !Refusal(data[0]).known() || len(data) != size:
		return ErrNotCanonical
	}
	v.msg, v.n = data, n
	return nil
}

func (v *segRespView) refusal() Refusal { return Refusal(v.msg[0]) }
func (v *segRespView) failedAt() int    { return int(v.msg[1]) }
func (v *segRespView) final() uint64    { return binary.BigEndian.Uint64(v.msg[2:]) }

// token is hop i's token slot, which a hop writes into its own message.
func (v *segRespView) token(i int) []byte {
	return v.msg[segRespFixedLen+packet.HVFLen*i : segRespFixedLen+packet.HVFLen*(i+1)]
}

// SegActivateReq switches a SegR to its pending version (§4.2).
type SegActivateReq struct {
	ID   reservation.ID
	Ver  uint16
	Path []PathHop
	Macs [][cryptoutil.MACSize]byte

	// wire is the message this request was decoded from — at the initiator
	// too, which runs hop 0 on its own encoding — and bodyLen the MAC-covered
	// share of it, which a hop authenticates: the decoder accepts only what
	// Marshal would produce, so wire[:bodyLen] is Body().
	wire    []byte
	bodyLen int
}

func (r *SegActivateReq) appendBody(b []byte) []byte {
	b = appendID(append(b, tagSegActivate), r.ID)
	b = binary.BigEndian.AppendUint16(b, r.Ver)
	return appendHops(b, r.Path)
}

// unmarshal decodes data into r, reusing the capacity of r's slices; r.wire
// aliases data.
func (r *SegActivateReq) unmarshal(data []byte) error {
	d := decoder{buf: data}
	if d.u8() != tagSegActivate {
		return ErrBadTag
	}
	r.ID = d.id()
	r.Ver = d.u16()
	r.Path = d.hops(r.Path[:0])
	r.wire, r.bodyLen = data, len(data)-len(d.buf)
	r.Macs = d.macs(r.Macs[:0])
	switch {
	case d.err != nil:
		return d.err
	case len(d.buf) != 0:
		return ErrNotCanonical
	}
	return nil
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

	// wire is the message UnmarshalEESetupReq decoded this request from and
	// bodyLen the MAC-covered share of it, wire[:bodyLen] = Body(). A hop reads
	// its request through an eeReqView instead (views.go).
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

// item is the EER version the request asks for, as a wave would carry it.
func (r *EESetupReq) item() EEBatchItem {
	return EEBatchItem{ID: r.ID, Ver: r.Ver, BwKbps: r.BwKbps, ExpT: r.ExpT, SrcHost: r.SrcHost, DstHost: r.DstHost}
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

// EESetupResp travels the reverse path; on success, EncAuths[i] carries
// AEAD_{K_{AS_i→SrcAS}}(σ_i) for the source AS's gateway (Eq. 5).
type EESetupResp struct {
	Refusal   Refusal
	FailedAt  uint8
	FinalKbps uint64
	EncAuths  [][]byte
}

// eeRespFixedLen is the size of an EESetupResp without its sealed
// authenticators: the refusal, FailedAt, FinalKbps, the count.
const eeRespFixedLen = 1 + 1 + 8 + 2

// Marshal encodes the response into one buffer of exactly its size.
func (r *EESetupResp) Marshal() []byte {
	size := eeRespFixedLen + 2*len(r.EncAuths)
	for _, ea := range r.EncAuths {
		size += len(ea)
	}
	b := append(make([]byte, 0, size), byte(r.Refusal), r.FailedAt)
	b = binary.BigEndian.AppendUint64(b, r.FinalKbps)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.EncAuths)))
	for _, ea := range r.EncAuths {
		b = binary.BigEndian.AppendUint16(b, uint16(len(ea)))
		b = append(b, ea...)
	}
	return b
}

// --- encoding helpers ---

// decodeNew decodes data into a fresh message of type T.
func decodeNew[T any, P interface {
	*T
	unmarshal([]byte) error
}](data []byte) (*T, error) {
	r := P(new(T))
	if err := r.unmarshal(data); err != nil {
		return nil, err
	}
	return r, nil
}

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

func (d *decoder) id() reservation.ID {
	return reservation.ID{SrcAS: topology.IA(d.u64()), Num: d.u32()}
}

// hops appends the hops to dst (nil for a fresh slice), which it sizes before
// the first of them — once the bytes for all of them are known to be there.
func (d *decoder) hops(dst []PathHop) []PathHop {
	n := int(d.u16())
	if n > packet.MaxHops {
		d.err = fmt.Errorf("cserv: %d hops exceeds maximum", n)
		return dst
	}
	if !d.need(n * hopLen) {
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
	if !d.need(n * cryptoutil.MACSize) {
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
