package gateway

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/monitor"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// refGateway is the gateway as it stood before its flat record table: an
// entry per EER in a Go map, a FlowMonitor holding the token buckets, and
// every packet encoded whole by Packet.SerializeTo. Single-goroutine.
type refGateway struct {
	srcAS  topology.IA
	byID   map[uint32]*refEntry
	mon    *monitor.FlowMonitor
	lastTs uint64
}

type refEntry struct {
	res         packet.ResInfo
	eer         packet.EERInfo
	path        []packet.HopField
	auths       []cryptoutil.Key
	monitorKbps uint64
	demoted     bool
}

func newRef(srcAS topology.IA) *refGateway {
	return &refGateway{srcAS: srcAS, byID: make(map[uint32]*refEntry), mon: monitor.NewFlowMonitor()}
}

func (g *refGateway) Install(res packet.ResInfo, eer packet.EERInfo, path []packet.HopField, auths []cryptoutil.Key) {
	e := &refEntry{res: res, eer: eer, path: path, auths: auths, monitorKbps: uint64(res.BwKbps)}
	if old, ok := g.byID[res.ResID]; ok && old.monitorKbps > e.monitorKbps {
		e.monitorKbps = old.monitorKbps
	}
	g.byID[res.ResID] = e
	g.mon.Ensure(reservation.ID{SrcAS: g.srcAS, Num: res.ResID}, e.monitorKbps, 0)
}

func (g *refGateway) Remove(resID uint32) {
	delete(g.byID, resID)
	g.mon.Forget(reservation.ID{SrcAS: g.srcAS, Num: resID})
}

func (g *refGateway) Expire(nowSec uint32) int {
	n := 0
	for id, e := range g.byID {
		if nowSec >= e.res.ExpT {
			g.Remove(id)
			n++
		}
	}
	return n
}

func (g *refGateway) setDemoted(resID uint32, demoted bool) bool {
	e, ok := g.byID[resID]
	if !ok || e.demoted == demoted {
		return false
	}
	e.demoted = demoted
	return true
}

func (g *refGateway) BuildBatch(reqs []BuildReq, outs []BuildRes, nowNs int64) int {
	n := len(reqs)
	nowSec := uint32(nowNs / 1e9)
	entries := make([]*refEntry, n)
	ids := make([]reservation.ID, n)
	rates := make([]uint64, n)
	sizes := make([]uint32, n)
	allowed := make([]bool, n)
	for i := range reqs {
		outs[i] = BuildRes{}
		e := g.byID[reqs[i].ResID]
		switch {
		case e == nil:
			outs[i].Err = ErrUnknownRes
			continue
		case nowSec >= e.res.ExpT:
			outs[i].Err = ErrExpired
			continue
		case e.demoted:
			outs[i].Err = ErrDemoted
			continue
		}
		sz := packet.DataLen(len(e.path), len(reqs[i].Payload))
		if len(reqs[i].Out) < sz {
			outs[i].Err = ErrBufTooSmall
			continue
		}
		entries[i] = e
		ids[i] = reservation.ID{SrcAS: g.srcAS, Num: reqs[i].ResID}
		rates[i] = e.monitorKbps
		sizes[i] = uint32(sz)
	}
	g.mon.AllowBatch(ids, rates, sizes, nowNs, allowed)
	toBuild := uint64(0)
	for i := range reqs {
		if entries[i] == nil {
			continue
		}
		if !allowed[i] {
			outs[i].Err = ErrRateExceeded
			entries[i] = nil
			continue
		}
		toBuild++
	}
	if toBuild == 0 {
		return 0
	}
	ts := g.lastTs + 1
	if ts < uint64(nowNs) {
		ts = uint64(nowNs)
	}
	g.lastTs = ts + toBuild - 1
	built := 0
	for i, e := range entries {
		if e == nil {
			continue
		}
		pkt := packet.Packet{Type: packet.TData, Res: e.res, EER: e.eer, Path: e.path, Payload: reqs[i].Payload, Ts: ts,
			HVFs: make([]byte, len(e.path)*packet.HVFLen)}
		ts++
		var in [packet.HVFInputLen]byte
		packet.HVFInput(&in, pkt.Ts, sizes[i])
		for h, a := range e.auths {
			var mac [cryptoutil.MACSize]byte
			cryptoutil.MACOneBlock(cryptoutil.NewBlock(a), &mac, &in)
			copy(pkt.HVFs[h*packet.HVFLen:], mac[:packet.HVFLen])
		}
		sz, err := pkt.SerializeTo(reqs[i].Out)
		outs[i] = BuildRes{N: sz, Err: err}
		if err == nil {
			built++
		}
	}
	return built
}

// TestGatewayMatchesReference drives the gateway and its map-and-monitor
// reference through one random script — installs of new EERs, renewals up
// and down over the same path, over another path of the same hop count (both
// re-encode the template in place) and over a path of another hop count,
// removals, expiry, demotion and promotion, and batches of 1–17 packets whose
// payloads cross the buckets' bursts under a clock that steps both ways — and
// requires identical answers, packets, buffers and σs (HopAuths).
func TestGatewayMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	g, ref := New(srcAS), newRef(srcAS)
	w := g.NewWorker()
	now := baseNs
	rates := []uint32{64, 128, 1000, 8000}
	randGrant := func(id uint32, hops int) (packet.ResInfo, packet.EERInfo, []packet.HopField, []cryptoutil.Key) {
		path := make([]packet.HopField, hops)
		auths := make([]cryptoutil.Key, hops)
		for h := range path {
			path[h] = packet.HopField{In: topology.IfID(rng.Intn(8)), Eg: topology.IfID(rng.Intn(8))}
			rng.Read(auths[h][:])
		}
		res := packet.ResInfo{SrcAS: srcAS, ResID: id, BwKbps: rates[rng.Intn(len(rates))],
			ExpT: uint32(now/1e9) + 1 + uint32(rng.Intn(16)), Ver: uint16(rng.Intn(100))}
		return res, packet.EERInfo{SrcHost: rng.Uint32(), DstHost: rng.Uint32()}, path, auths
	}
	outcomes := make(map[error]int) // the errors are bare sentinels
	var renewals [3]int             // same path, same hop count, another hop count
	for step := 0; step < 20_000; step++ {
		id := uint32(1 + rng.Intn(24))
		switch op := rng.Intn(110); {
		case op < 10:
			res, eer, path, auths := randGrant(id, 1+rng.Intn(6))
			if err := g.Install(res, eer, path, auths); err != nil {
				t.Fatalf("step %d: install: %v", step, err)
			}
			ref.Install(res, eer, path, auths)
		case op >= 100:
			// The next version of a known EER, with new σs.
			e := ref.byID[id]
			if e == nil {
				continue
			}
			kind, hops := rng.Intn(3), len(e.path)
			if kind == 2 {
				hops = 1 + (hops+rng.Intn(5))%6
			}
			res, _, path, auths := randGrant(id, hops)
			if kind == 0 {
				path = e.path
			}
			res.Ver = e.res.Ver + 1
			if err := g.Install(res, e.eer, path, auths); err != nil {
				t.Fatalf("step %d: renewal: %v", step, err)
			}
			ref.Install(res, e.eer, path, auths)
			renewals[kind]++
		case op < 12:
			g.Remove(id)
			ref.Remove(id)
		case op < 14:
			if a, b := g.Expire(uint32(now/1e9)), ref.Expire(uint32(now/1e9)); a != b {
				t.Fatalf("step %d: Expire dropped %d, reference %d", step, a, b)
			}
		case op < 16:
			if a, b := g.Demote(id), ref.setDemoted(id, true); a != b {
				t.Fatalf("step %d: Demote(%d) = %v, reference %v", step, id, a, b)
			}
		case op < 18:
			if a, b := g.Promote(id), ref.setDemoted(id, false); a != b {
				t.Fatalf("step %d: Promote(%d) = %v, reference %v", step, id, a, b)
			}
		case op < 25:
			// The clock steps back by up to 20 ms, or ahead by up to 2 s.
			if rng.Intn(3) == 0 {
				now -= int64(rng.Intn(20e6))
			} else {
				now += int64(rng.Intn(2e9))
			}
		default:
			n := 1 + rng.Intn(17)
			reqs, refReqs := make([]BuildReq, n), make([]BuildReq, n)
			for i := range reqs {
				payload := make([]byte, rng.Intn(3000))
				rng.Read(payload)
				out := packet.DataLen(6, 3000)
				if rng.Intn(20) == 0 {
					out = rng.Intn(200) // mostly too small
				}
				reqs[i] = BuildReq{ResID: uint32(1 + rng.Intn(24)), Payload: payload, Out: bytes.Repeat([]byte{0xa5}, out)}
				refReqs[i] = reqs[i]
				refReqs[i].Out = bytes.Repeat([]byte{0xa5}, out)
			}
			outs, refOuts := make([]BuildRes, n), make([]BuildRes, n)
			a, b := w.BuildBatch(reqs, outs, now), ref.BuildBatch(refReqs, refOuts, now)
			if a != b {
				t.Fatalf("step %d: built %d, reference %d", step, a, b)
			}
			for i := range reqs {
				if outs[i] != refOuts[i] || !bytes.Equal(reqs[i].Out, refReqs[i].Out) {
					t.Fatalf("step %d packet %d (res %d, %d B): %+v, reference %+v; buffers equal: %v",
						step, i, reqs[i].ResID, len(reqs[i].Payload), outs[i], refOuts[i], bytes.Equal(reqs[i].Out, refReqs[i].Out))
				}
				outcomes[outs[i].Err]++
			}
			// A few packets at small steps, so buckets drain within a second.
			now += int64(rng.Intn(5e6))
		}
		if g.Len() != len(ref.byID) {
			t.Fatalf("step %d: %d records, reference %d", step, g.Len(), len(ref.byID))
		}
		e := ref.byID[id]
		if g.Demoted(id) != (e != nil && e.demoted) {
			t.Fatalf("step %d: Demoted(%d) disagrees", step, id)
		}
		if e != nil {
			auths := make([]cryptoutil.Key, len(e.path))
			if g.HopAuths(id, auths); !slices.Equal(auths, e.auths) {
				t.Fatalf("step %d: HopAuths(%d) disagrees", step, id)
			}
		}
	}
	for _, err := range []error{nil, ErrUnknownRes, ErrExpired, ErrDemoted, ErrBufTooSmall, ErrRateExceeded} {
		if outcomes[err] == 0 {
			t.Errorf("no packet ended with %v: the script does not test it", err)
		}
	}
	if renewals[0] == 0 || renewals[1] == 0 || renewals[2] == 0 {
		t.Errorf("renewals (same path, same hop count, another hop count): %v", renewals)
	}
}
