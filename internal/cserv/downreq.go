package cserv

import (
	"encoding/binary"
	"fmt"

	"colibri/internal/cryptoutil"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// Down-segment reservation requests (§3.3): "SegRs are always initiated by
// the first AS on the segment. For down-SegRs, the first AS only sets up a
// SegR upon an explicit request by the last AS." The last AS (the leaf that
// wants to be reachable) sends a DownSegReq to the core AS at the segment's
// head, which — subject to its own policy — initiates the setup.

const tagDownReq = 6

// DownSegReq asks the AS at the head of seg to initiate a down-SegR.
type DownSegReq struct {
	// Requester is the last AS of the segment (the beneficiary).
	Requester topology.IA
	// Seg is the requested down-segment, head first.
	Seg     []PathHop
	MinKbps uint64
	MaxKbps uint64
	// Mac authenticates the body with K_{head→Requester}.
	Mac [cryptoutil.MACSize]byte

	// body is the MAC-covered share of the message this request was decoded
	// from, which the head authenticates: the decoder accepts only what
	// Marshal would produce, so body is Body().
	body []byte
}

// Body returns the MAC-covered canonical encoding.
func (r *DownSegReq) Body() []byte {
	b := []byte{tagDownReq}
	b = binary.BigEndian.AppendUint64(b, uint64(r.Requester))
	b = appendHops(b, r.Seg)
	b = binary.BigEndian.AppendUint64(b, r.MinKbps)
	b = binary.BigEndian.AppendUint64(b, r.MaxKbps)
	return b
}

// Marshal appends the MAC to the body.
func (r *DownSegReq) Marshal() []byte { return append(r.Body(), r.Mac[:]...) }

// unmarshal decodes data into r, reusing the capacity of r's segment; r.body
// aliases data.
func (r *DownSegReq) unmarshal(data []byte) error {
	d := decoder{buf: data}
	if d.u8() != tagDownReq {
		return ErrBadTag
	}
	r.Requester = topology.IA(d.u64())
	r.Seg = d.hops(r.Seg[:0])
	r.MinKbps = d.u64()
	r.MaxKbps = d.u64()
	r.body = data[:len(data)-len(d.buf)]
	d.bytes(r.Mac[:])
	switch {
	case d.err != nil:
		return d.err
	case len(d.buf) != 0:
		return ErrNotCanonical
	}
	return nil
}

// RequestDownSegment (called at the segment's *last* AS) asks the head AS
// to initiate a down-SegR over the given segment. On success the head AS
// has registered the new SegR in the directory, where this AS's hosts will
// find it.
func (s *Service) RequestDownSegment(seg *segment.Segment, minKbps, maxKbps uint64) error {
	if seg.Type != segment.Down {
		return fmt.Errorf("cserv: RequestDownSegment needs a down-segment, got %v", seg.Type)
	}
	if seg.DstIA() != s.ia {
		return fmt.Errorf("cserv: down-segment ends at %s, not at this AS %s", seg.DstIA(), s.ia)
	}
	head := seg.SrcIA()
	req := &DownSegReq{
		Requester: s.ia,
		Seg:       HopsFromSegment(seg),
		MinKbps:   minKbps,
		MaxKbps:   maxKbps,
	}
	var macs [][cryptoutil.MACSize]byte
	if _, err := s.signPath([]PathHop{{IA: head}}, req.Body(), &macs); err != nil {
		return err
	}
	req.Mac = macs[0]
	data, err := s.transport.Call(head, req.Marshal())
	if err != nil {
		return err
	}
	var resp segRespView
	if err := resp.load(data); err != nil {
		return err
	}
	return resp.refusal().at(resp.failedAt())
}

// handleDownReq processes a DownSegReq at the segment's head AS and returns
// the marshaled response. A segment that does not run from this AS to the
// requester is malformed.
func (s *Service) handleDownReq(req *DownSegReq) []byte {
	if len(req.Seg) < 2 || req.Seg[0].IA != s.ia || req.Seg[len(req.Seg)-1].IA != req.Requester {
		return refuseSeg(0, RefusedMalformed)
	}
	// The request's one MAC is the requester's (hop 0 of the exchange) towards
	// this AS (hop 1).
	if _, code := s.authHop(req.Requester, req.body, &req.Mac, 1); code != Granted {
		return refuseSeg(0, code)
	}
	hops := make([]segment.Hop, len(req.Seg))
	for i, h := range req.Seg {
		hops[i] = segment.Hop{IA: h.IA, In: h.In, Eg: h.Eg}
	}
	seg := &segment.Segment{Type: segment.Down, Hops: hops}
	segr, err := s.SetupSegment(seg, req.MinKbps, req.MaxKbps)
	if err != nil {
		return refuseSeg(0, refusalOf(err))
	}
	return segResp(Granted, 0, segr.Active.BwKbps, 0)
}
