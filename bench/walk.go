package main

import (
	"bytes"
	"fmt"

	"colibri/internal/core"
	"colibri/internal/router"
)

// sendTraced is the traced packet op: the harness replays Session.Send's
// walk itself — gateway build, one router validation per on-path AS, decode
// and payload copy at the destination — with a span around each call into a
// layer. It uses workers of its own (core's are unexported) and checks the
// delivery itself; the destination host's inbox is not involved.
func (w *world) sendTraced(s *core.Session, h *hist) {
	payload := w.stampPayload()
	w.attempted++
	w.counts.Conforming++
	r := w.rec
	now := w.net.Clock.NowNs()
	resID := s.Grant().Res.ResID
	op := r.beginOp(spPkt)
	i := r.begin(spBuild)
	n, err := w.gwW.Build(resID, payload, w.walkBuf, now)
	r.end(i)
	var got []byte
	if err != nil {
		w.buildRejects++
	} else {
		got, err = w.walk(w.walkBuf[:n], now)
	}
	r.endOp(op)
	h.record(r.spans[op].end - r.spans[op].start)
	switch {
	case err != nil:
		w.fail("traced packet %d: %v", w.seq, err)
	case !bytes.Equal(got, payload):
		w.fail("traced packet %d: payload differs on delivery", w.seq)
	default:
		w.counts.Delivered++
	}
}

// walk forwards a built packet hop by hop to its destination and returns
// the delivered payload.
func (w *world) walk(buf []byte, now int64) ([]byte, error) {
	r := w.rec
	cur := srcIA
	for hop := 0; hop < len(w.path); hop++ {
		i := r.begin(spProcess)
		v, err := w.rtW[cur].Process(buf, now)
		r.end(i)
		r.spans[i].hop = uint8(hop)
		if err != nil {
			r.spans[i].name = spDrop
			return nil, fmt.Errorf("dropped at %s: %w", cur, err)
		}
		switch v.Action {
		case router.AForward:
			intf := w.net.Node(cur).AS.Interface(v.Egress)
			if intf == nil {
				return nil, fmt.Errorf("no interface %d at %s", v.Egress, cur)
			}
			cur = intf.Neighbor
		case router.ADeliver:
			r.spans[i].last = true
			i = r.begin(spDeliver)
			_, err := w.walkPkt.DecodeFromBytes(buf)
			got := append([]byte(nil), w.walkPkt.Payload...)
			r.end(i)
			return got, err
		default:
			return nil, fmt.Errorf("unexpected verdict %d at %s", v.Action, cur)
		}
	}
	return nil, fmt.Errorf("not delivered within %d hops", len(w.path))
}

// dropTraced pushes a hostile packet into the first router with a span
// around the call; the error is the router's drop reason.
func (w *world) dropTraced(buf []byte) error {
	r := w.rec
	op := r.beginOp(spDrop)
	_, err := w.rtW[srcIA].Process(buf, w.net.Clock.NowNs())
	r.endOp(op)
	return err
}
