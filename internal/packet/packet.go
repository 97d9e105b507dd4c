// Package packet implements the Colibri packet format of §4.3 (Eq. 2):
//
//	Packet = (Path ‖ ResInfo ‖ EERInfo ‖ Ts ‖ V_0 ‖ … ‖ V_ℓ ‖ Payload)
//
// with Path a list of ingress–egress interface pairs, ResInfo the
// reservation metadata, EERInfo the end-host addresses (zero for segment-
// reservation packets), Ts a high-precision timestamp unique per source, and
// V_i the hop validation field (HVF) of the i-th on-path AS.
//
// The wire layout is fixed-offset so that border routers can validate and
// forward without per-flow state and without allocation: DecodeFromBytes
// borrows from the input buffer and reuses the decoder's slices
// (gopacket-style DecodingLayer discipline), and a border router's
// DecodeHop reads only its own hop field.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"colibri/internal/topology"
)

// Type discriminates Colibri packet kinds. All kinds share one header
// layout; control packets carry their request/response payloads opaquely.
type Type uint8

const (
	// TData is an EER data-plane packet.
	TData Type = iota + 1
	// TSegSetupReq is a segment-reservation setup request (best effort).
	TSegSetupReq
	// TSegRenewReq renews an existing SegR (sent over the SegR).
	TSegRenewReq
	// TSegActivate switches a SegR to a pending version (§4.2).
	TSegActivate
	// TEESetupReq is an end-to-end-reservation setup request (over SegRs).
	TEESetupReq
	// TEERenewReq renews an existing EER (sent over the EER).
	TEERenewReq
	// TResponse carries a control-plane response on the reverse path.
	TResponse
)

func (t Type) String() string {
	switch t {
	case TData:
		return "data"
	case TSegSetupReq:
		return "seg-setup"
	case TSegRenewReq:
		return "seg-renew"
	case TSegActivate:
		return "seg-activate"
	case TEESetupReq:
		return "ee-setup"
	case TEERenewReq:
		return "ee-renew"
	case TResponse:
		return "response"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// IsControl reports whether the type is a control-plane packet.
func (t Type) IsControl() bool { return t != TData }

// Wire-format constants.
const (
	// Version is the only supported wire version.
	Version = 1
	// MaxHops bounds the path length (the paper evaluates up to 16 ASes;
	// the current Internet average is 4–5).
	MaxHops = 32
	// HVFLen is ℓ_hvf, the truncated MAC length in packet headers (§4.5).
	HVFLen = 4
	// fixedLen is the length of the fixed header prefix:
	// version(1) type(1) flags(1) currHop(1) pathLen(1) rsvd(1) payLen(2)
	// ResInfo: srcAS(8) resID(4) bw(4) expT(4) ver(2) rsvd(2)
	// EERInfo: srcHost(4) dstHost(4)
	// Ts(8)
	fixedLen = 8 + 24 + 8 + 8
	// hopFieldLen is In(2) ‖ Eg(2).
	hopFieldLen = 4
)

// MaxPayload bounds the payload length encodable in the 16-bit length field.
const MaxPayload = 1<<16 - 1

// ResInfo is the reservation metadata carried in every Colibri packet
// (Eq. 2c). The pair (SrcAS, ResID) identifies a reservation globally.
type ResInfo struct {
	SrcAS  topology.IA
	ResID  uint32
	BwKbps uint32
	ExpT   uint32 // Unix seconds
	Ver    uint16
}

// EERInfo carries the end-host addresses (Eq. 2d); zero for SegR packets.
type EERInfo struct {
	SrcHost uint32
	DstHost uint32
}

// HopField is one ingress–egress interface pair of the packet-carried path.
type HopField struct {
	In, Eg topology.IfID
}

// Packet is the decoded representation. After DecodeFromBytes, HVFs and
// Payload alias the input buffer and Path reuses the packet's own backing
// array; a Packet may be reused across decodes to avoid allocation.
type Packet struct {
	Type    Type
	CurrHop uint8
	Res     ResInfo
	EER     EERInfo
	Ts      uint64

	Path    []HopField
	HVFs    []byte // 4 bytes per hop, aliases the buffer after decode
	Payload []byte
}

// Decode/serialize errors.
var (
	ErrTooShort   = errors.New("packet: buffer too short")
	ErrBadVersion = errors.New("packet: unsupported version")
	ErrBadPath    = errors.New("packet: invalid path length")
	ErrBadCurrHop = errors.New("packet: current hop out of range")
	ErrPayloadLen = errors.New("packet: payload too large")
)

// Length returns the serialized length of the packet.
func (p *Packet) Length() int {
	return DataLen(len(p.Path), len(p.Payload))
}

// DataLen returns the serialized length of a packet with the given hop
// count and payload size, without needing a decoded Packet — used by batch
// builders to size-check and police before assembling anything.
func DataLen(hops, payloadBytes int) int {
	return fixedLen + hops*(hopFieldLen+HVFLen) + payloadBytes
}

// HVF returns the 4-byte hop validation field of hop i (a view, valid until
// the backing buffer is reused).
func (p *Packet) HVF(i int) []byte { return p.HVFs[i*HVFLen : i*HVFLen+HVFLen : i*HVFLen+HVFLen] }

// SerializeTo writes the packet into buf and returns the number of bytes
// written. The buffer must be at least Length() bytes.
func (p *Packet) SerializeTo(buf []byte) (int, error) {
	n := p.Length()
	if len(buf) < n {
		return 0, fmt.Errorf("%w: need %d, have %d", ErrTooShort, n, len(buf))
	}
	hops := len(p.Path)
	if hops == 0 || hops > MaxHops {
		return 0, fmt.Errorf("%w: %d hops", ErrBadPath, hops)
	}
	if int(p.CurrHop) >= hops {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadCurrHop, p.CurrHop, hops)
	}
	if len(p.Payload) > MaxPayload {
		return 0, fmt.Errorf("%w: %d bytes", ErrPayloadLen, len(p.Payload))
	}
	if len(p.HVFs) != hops*HVFLen {
		return 0, fmt.Errorf("packet: HVFs length %d != %d", len(p.HVFs), hops*HVFLen)
	}
	buf[0] = Version
	buf[1] = byte(p.Type)
	buf[2] = 0 // flags, reserved
	buf[3] = p.CurrHop
	buf[4] = byte(hops)
	buf[5] = 0
	binary.BigEndian.PutUint16(buf[6:8], uint16(len(p.Payload)))
	SetReservation(buf, &p.Res, &p.EER)
	buf[30], buf[31] = 0, 0
	binary.BigEndian.PutUint64(buf[40:48], p.Ts)
	off := fixedLen
	for _, h := range p.Path {
		binary.BigEndian.PutUint16(buf[off:], uint16(h.In))
		binary.BigEndian.PutUint16(buf[off+2:], uint16(h.Eg))
		off += hopFieldLen
	}
	copy(buf[off:], p.HVFs)
	off += hops * HVFLen
	copy(buf[off:], p.Payload)
	return n, nil
}

// Serialize allocates a buffer of exactly the right size and serializes into
// it. Hot paths should use SerializeTo with a reused buffer instead.
func (p *Packet) Serialize() ([]byte, error) {
	buf := make([]byte, p.Length())
	if _, err := p.SerializeTo(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// DecodeFromBytes parses data into p, reusing p's Path backing array and
// aliasing data for HVFs and Payload. It returns the number of bytes
// consumed.
func (p *Packet) DecodeFromBytes(data []byte) (int, error) {
	total, err := p.decodeHeader(data)
	if err != nil {
		return 0, err
	}
	hops := len(p.HVFs) / HVFLen
	if cap(p.Path) < hops {
		p.Path = make([]HopField, hops)
	} else {
		p.Path = p.Path[:hops]
	}
	for i := range p.Path {
		p.Path[i] = hopAt(data, i)
	}
	return total, nil
}

// DecodeHop is the border router's decode: it makes every check
// DecodeFromBytes makes and fills every field but Path, which it leaves
// empty, and returns the current hop's field, the only one a hop reads.
// PathLenOf(data) is the hop count.
//
//colibri:nomalloc
func (p *Packet) DecodeHop(data []byte) (HopField, int, error) {
	total, err := p.decodeHeader(data)
	if err != nil {
		return HopField{}, 0, err
	}
	p.Path = p.Path[:0]
	return hopAt(data, int(p.CurrHop)), total, nil
}

// decodeHeader checks data and parses everything but the hop fields into
// p, returning the packet's length.
func (p *Packet) decodeHeader(data []byte) (int, error) {
	if len(data) < fixedLen {
		return 0, ErrTooShort
	}
	if data[0] != Version {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, data[0])
	}
	hops := int(data[4])
	if hops == 0 || hops > MaxHops {
		return 0, fmt.Errorf("%w: %d hops", ErrBadPath, hops)
	}
	payLen := int(binary.BigEndian.Uint16(data[6:8]))
	total := fixedLen + hops*(hopFieldLen+HVFLen) + payLen
	if len(data) < total {
		return 0, fmt.Errorf("%w: need %d, have %d", ErrTooShort, total, len(data))
	}
	p.Type = Type(data[1])
	p.CurrHop = data[3]
	if int(p.CurrHop) >= hops {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadCurrHop, p.CurrHop, hops)
	}
	p.Res.SrcAS = topology.IA(binary.BigEndian.Uint64(data[8:16]))
	p.Res.ResID = binary.BigEndian.Uint32(data[16:20])
	p.Res.BwKbps = binary.BigEndian.Uint32(data[20:24])
	p.Res.ExpT = binary.BigEndian.Uint32(data[24:28])
	p.Res.Ver = binary.BigEndian.Uint16(data[28:30])
	p.EER.SrcHost = binary.BigEndian.Uint32(data[32:36])
	p.EER.DstHost = binary.BigEndian.Uint32(data[36:40])
	p.Ts = binary.BigEndian.Uint64(data[40:48])
	off := HVFOffset(hops)
	p.HVFs = data[off : off+hops*HVFLen]
	off += hops * HVFLen
	p.Payload = data[off : off+payLen]
	return total, nil
}

// hopAt reads hop field i of a checked buffer.
func hopAt(data []byte, i int) HopField {
	off := fixedLen + i*hopFieldLen
	return HopField{
		In: topology.IfID(binary.BigEndian.Uint16(data[off:])),
		Eg: topology.IfID(binary.BigEndian.Uint16(data[off+2:])),
	}
}

// SetCurrHopInPlace updates the current-hop byte directly in a serialized
// buffer, the only header mutation a border router performs when forwarding.
func SetCurrHopInPlace(buf []byte, hop uint8) {
	buf[3] = hop
}

// CurrHopOf reads the current-hop byte of a serialized buffer.
func CurrHopOf(buf []byte) uint8 { return buf[3] }

// PathLenOf reads the hop count of a serialized buffer.
func PathLenOf(buf []byte) int { return int(buf[4]) }

// HVFOffset returns where hop 0's HVF starts in a serialized packet of the
// given hop count; the HVFs end, and the payload starts, at DataLen(hops, 0).
func HVFOffset(hops int) int { return fixedLen + hops*hopFieldLen }

// SetDataFields writes a packet's payload length and Ts into a serialized
// header in place: the two fields a builder fills in after copying a header
// that SerializeTo encoded once per reservation.
func SetDataFields(buf []byte, payloadLen int, ts uint64) {
	binary.BigEndian.PutUint16(buf[6:8], uint16(payloadLen))
	binary.BigEndian.PutUint64(buf[40:48], ts)
}

// SetReservation writes a packet's ResInfo and EERInfo into a serialized
// header in place. SerializeTo writes them through it, and a builder that
// copies a header encoded once per path, with both zero, fills them in with it.
func SetReservation(buf []byte, res *ResInfo, eer *EERInfo) {
	binary.BigEndian.PutUint64(buf[8:16], uint64(res.SrcAS))
	binary.BigEndian.PutUint32(buf[16:20], res.ResID)
	binary.BigEndian.PutUint32(buf[20:24], res.BwKbps)
	binary.BigEndian.PutUint32(buf[24:28], res.ExpT)
	binary.BigEndian.PutUint16(buf[28:30], res.Ver)
	binary.BigEndian.PutUint32(buf[32:36], eer.SrcHost)
	binary.BigEndian.PutUint32(buf[36:40], eer.DstHost)
}

// PeekFlowKey extracts the RSS flow key — ResID ‖ SrcHost — straight from a
// serialized buffer's fixed offsets, without decoding. This is what a
// sharded front end hashes to pick a shard: all packets of one (reservation,
// source host) pair land on the same shard, which pins the per-flow state
// (replay window, OFD budget, token bucket) and preserves per-flow order.
// ok is false if the buffer is shorter than the fixed header; such runts are
// sent to shard 0, whose decoder rejects them properly.
//
//colibri:nomalloc
func PeekFlowKey(buf []byte) (key uint64, ok bool) {
	if len(buf) < fixedLen {
		return 0, false
	}
	return uint64(binary.BigEndian.Uint32(buf[16:20]))<<32 |
		uint64(binary.BigEndian.Uint32(buf[32:36])), true
}
