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

// UnmarshalDownSegReq parses a DownSegReq.
func UnmarshalDownSegReq(data []byte) (*DownSegReq, error) {
	d := decoder{buf: data}
	if d.u8() != tagDownReq {
		return nil, ErrBadTag
	}
	r := &DownSegReq{}
	r.Requester = topology.IA(d.u64())
	r.Seg = d.hops(nil)
	r.MinKbps = d.u64()
	r.MaxKbps = d.u64()
	d.bytes(r.Mac[:])
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
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
	key, err := s.keys.Get(head, s.clock())
	if err != nil {
		return err
	}
	cryptoutil.MustCMAC(key).SumInto(&req.Mac, req.Body())
	data, err := s.transport.Call(head, req.Marshal())
	if err != nil {
		return err
	}
	resp, err := UnmarshalSegSetupResp(data)
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("%w: down-SegR refused at hop %d: %s", ErrRefused, resp.FailedAt, resp.Reason)
	}
	return nil
}

// handleDownReq processes a DownSegReq at the segment's head AS.
func (s *Service) handleDownReq(req *DownSegReq) *SegSetupResp {
	fail := func(format string, args ...any) *SegSetupResp {
		return &SegSetupResp{Reason: fmt.Sprintf(format, args...)}
	}
	if len(req.Seg) < 2 || req.Seg[0].IA != s.ia {
		return fail("segment does not start at this AS")
	}
	if req.Seg[len(req.Seg)-1].IA != req.Requester {
		return fail("requester %s is not the segment's last AS", req.Requester)
	}
	// Authenticate the requester with the on-the-fly key K_{me→Requester}.
	key, _ := s.engine.Level1(req.Requester, s.clock())
	var want [cryptoutil.MACSize]byte
	cryptoutil.MustCMAC(key).SumInto(&want, req.Body())
	if !cryptoutil.ConstantTimeEqual(want[:], req.Mac[:]) {
		return fail("authentication failed")
	}
	if !s.rate.Allow(req.Requester, s.clock()) {
		return fail("rate limited")
	}
	hops := make([]segment.Hop, len(req.Seg))
	for i, h := range req.Seg {
		hops[i] = segment.Hop{IA: h.IA, In: h.In, Eg: h.Eg}
	}
	seg := &segment.Segment{Type: segment.Down, Hops: hops}
	segr, err := s.SetupSegment(seg, req.MinKbps, req.MaxKbps)
	if err != nil {
		return fail("setup: %v", err)
	}
	return &SegSetupResp{OK: true, FinalKbps: segr.Active.BwKbps}
}
