package core

import (
	"errors"
	"maps"
	"testing"

	"colibri/internal/cserv"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// lyingTransport answers, in place of the next hop, every EER setup its AS
// forwards from path position liar.at with liar.resp.
type lyingTransport struct {
	inner cserv.Transport
	liar  *liar
}

type liar struct {
	at   int // -1: honest
	resp []byte
}

func (l lyingTransport) Call(dst topology.IA, msg []byte) ([]byte, error) {
	const tagSegSetup, tagEESetup = 1, 4 // cserv keeps its wire tags unexported
	switch {
	case l.liar.at < 0:
	case msg[0] == tagEESetup:
		req, err := cserv.UnmarshalEESetupReq(msg)
		if err == nil && req.Path[l.liar.at+1].IA == dst {
			return append([]byte(nil), l.liar.resp...), nil
		}
	case msg[0] == tagSegSetup:
		req, err := cserv.UnmarshalSegSetupReq(msg)
		if err == nil && req.Path[l.liar.at+1].IA == dst {
			return append([]byte(nil), l.liar.resp...), nil
		}
	}
	return l.inner.Call(dst, msg)
}

// TestShortResponseDoesNotPanic is the regression test of a remote crash: a
// downstream that answers OK with fewer sealed authenticators than the path has
// hops made the upstream CServ index past the end of the response (and then
// dereference nil in its deferred metrics), one with more made the initiator
// index past the end of the path, and a SegR setup answered with too few tokens
// did the same. Every such answer must be a refusal — "response: malformed" —
// with the admission of every hop in front of the liar rolled back: the demand
// on every SegR at every AS is what it was before.
func TestShortResponseDoesNotPanic(t *testing.T) {
	sealed := make([]byte, 16+28)
	slots := func(n int, fill ...int) [][]byte {
		out := make([][]byte, n)
		for _, i := range fill {
			out[i] = sealed
		}
		return out
	}
	lies := map[string][]byte{
		"no authenticators":  (&cserv.EESetupResp{FinalKbps: 1}).Marshal(),
		"one too few":        (&cserv.EESetupResp{FinalKbps: 1, EncAuths: slots(4)}).Marshal(),
		"one too many":       (&cserv.EESetupResp{FinalKbps: 1, EncAuths: slots(6)}).Marshal(),
		"an unsealed hop":    (&cserv.EESetupResp{FinalKbps: 1, EncAuths: slots(5)}).Marshal(),
		"a hop sealed twice": (&cserv.EESetupResp{FinalKbps: 1, EncAuths: slots(5, 0, 1, 2, 3, 4)}).Marshal(),
		"a short slot":       (&cserv.EESetupResp{FinalKbps: 1, EncAuths: [][]byte{nil, nil, nil, nil, {1}}}).Marshal(),
		"truncated":          (&cserv.EESetupResp{FinalKbps: 1, EncAuths: slots(5, 4)}).Marshal()[:20],
	}
	for _, shards := range []int{1, 4} {
		l := &liar{at: -1}
		net, hs, hd := twoISDNet(t, Options{
			CPlaneShards: shards,
			WrapTransport: func(_ topology.IA, inner cserv.Transport) cserv.Transport {
				return lyingTransport{inner, l}
			},
		})
		src := net.Node(hs.IA).CServ
		if _, err := src.RequestEER(1, 2, hd.IA, 500); err != nil {
			t.Fatal(err)
		}
		var segIDs []reservation.ID
		for _, ia := range net.Topo.SortedIAs() {
			for _, sr := range net.Node(ia).CServ.Store().InitiatedSegRs() {
				segIDs = append(segIDs, sr.ID)
			}
		}
		// demand is the EER bandwidth charged to each SegR at each AS.
		demand := func() map[string]uint64 {
			out := make(map[string]uint64)
			for _, ia := range net.Topo.SortedIAs() {
				cs := net.Node(ia).CServ
				for _, id := range segIDs {
					if m, ok := cs.CPlane().SegDemandMax(id); ok {
						out[ia.String()+" "+id.String()] = m
					}
				}
			}
			return out
		}
		before := demand()
		if len(before) < 9 {
			t.Fatalf("only %d (AS, SegR) pairs to watch", len(before))
		}
		for name, resp := range lies {
			for at := 0; at < 4; at++ {
				l.at, l.resp = at, resp
				_, err := src.RequestEER(1, 2, hd.IA, 500)
				l.at = -1
				if !errors.Is(err, cserv.ErrRefused) || !errors.Is(err, cserv.RefusedBadAnswer) {
					t.Fatalf("shards=%d, %s answered to hop %d: err = %v, want the next hop's answer malformed", shards, name, at, err)
				}
				if after := demand(); !maps.Equal(before, after) {
					t.Fatalf("shards=%d, %s answered to hop %d: charges stranded:\nbefore %v\nafter  %v", shards, name, at, before, after)
				}
			}
		}
		// A SegR setup answered with no tokens: granted at hop 0, 1 kbps, a
		// token count of 0.
		l.at, l.resp = 0, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0}
		seg := net.Registry.UpSegments(hs.IA)[0]
		_, err := src.SetupSegment(seg, 0, 1_000)
		l.at = -1
		if !errors.Is(err, cserv.ErrRefused) || !errors.Is(err, cserv.RefusedBadAnswer) {
			t.Fatalf("shards=%d, SegR setup answered without tokens: err = %v", shards, err)
		}
		if _, err := src.RequestEER(1, 2, hd.IA, 500); err != nil {
			t.Fatalf("shards=%d: an honest setup after the lies: %v", shards, err)
		}
	}
}
