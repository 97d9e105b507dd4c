package cserv

import (
	"strings"
	"testing"
)

func TestDownSegmentRequest(t *testing.T) {
	f := twoISDFabric(t, nil)
	leaf := f.services[ia(2, 11)]
	downSeg := f.reg.DownSegments(ia(2, 11))[0] // 2-1 → 2-11
	if err := leaf.RequestDownSegment(downSeg, 1000, 50_000); err != nil {
		t.Fatal(err)
	}
	// The head AS (2-1) initiated and registered the SegR.
	if f.dir.Len() != 1 {
		t.Fatalf("directory has %d offers", f.dir.Len())
	}
	segs := f.services[ia(2, 1)].CPlane().Counts().SegRs
	if segs != 1 {
		t.Errorf("head AS stores %d SegRs", segs)
	}
	// The requester AS stores its on-path view too.
	segs = leaf.CPlane().Counts().SegRs
	if segs != 1 {
		t.Errorf("requester stores %d SegRs", segs)
	}
}

func TestDownSegmentRequestValidation(t *testing.T) {
	f := twoISDFabric(t, nil)
	leaf := f.services[ia(2, 11)]
	upSeg := f.reg.UpSegments(ia(1, 11))[0]
	if err := leaf.RequestDownSegment(upSeg, 0, 1000); err == nil {
		t.Error("up-segment accepted by RequestDownSegment")
	}
	otherDown := f.reg.DownSegments(ia(1, 11))[0]
	if err := leaf.RequestDownSegment(otherDown, 0, 1000); err == nil {
		t.Error("down-segment for another AS accepted")
	}
	// A forged requester (MAC computed with the wrong key) is refused by
	// the head AS.
	downSeg := f.reg.DownSegments(ia(2, 11))[0]
	req := &DownSegReq{
		Requester: ia(2, 11),
		Seg:       HopsFromSegment(downSeg),
		MaxKbps:   1000,
	}
	// No/garbage MAC.
	data, err := f.Call(ia(2, 1), req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := UnmarshalSegSetupResp(data)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Refusal != RefusedAuth {
		t.Errorf("forged down request: %+v", resp)
	}
}

func TestEERRenewThrottled(t *testing.T) {
	f := twoISDFabric(t, nil)
	f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	g, err := src.RequestEER(1, 2, ia(2, 11), 1_000)
	if err != nil {
		t.Fatal(err)
	}
	// First renewal within the second passes; the second is throttled.
	g2, err := src.RenewEER(g, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.RenewEER(g2, 1_000); err == nil {
		t.Fatal("second renewal within one second accepted")
	}
	if src.Metrics().Snapshot().RenewThrottle == 0 {
		t.Error("throttle not counted")
	}
	// Next second it is allowed again.
	f.clock.Store(t0 + 1)
	if _, err := src.RenewEER(g2, 1_000); err != nil {
		t.Errorf("renewal after window: %v", err)
	}
}

func TestMetricsCounting(t *testing.T) {
	f := twoISDFabric(t, nil)
	seg := f.reg.UpSegments(ia(1, 11))[0]
	src := f.services[ia(1, 11)]
	segr, err := src.SetupSegment(seg, 0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	ver, _, err := src.RenewSegment(segr.ID, 0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.ActivateSegment(segr.ID, ver); err != nil {
		t.Fatal(err)
	}
	// Over-capacity setup fails and counts.
	if _, err := src.SetupSegment(seg, 1<<40, 1<<40); err == nil {
		t.Fatal("impossible setup accepted")
	}
	m := src.Metrics().Snapshot()
	if m.SegSetupOK != 1 || m.SegRenewOK != 1 || m.SegActivate != 1 || m.SegSetupFail == 0 {
		t.Errorf("metrics: %s", m)
	}
	if !strings.Contains(m.String(), "seg setup 1/") {
		t.Errorf("String(): %s", m)
	}
	// Transit AS counted the same requests from its side.
	transit := f.services[seg.Hops[1].IA]
	tm := transit.Metrics().Snapshot()
	if tm.SegSetupOK != 1 || tm.SegRenewOK != 1 {
		t.Errorf("transit metrics: %s", tm)
	}
}

func TestDownReqRoundTrip(t *testing.T) {
	req := &DownSegReq{
		Requester: ia(2, 11),
		Seg: []PathHop{
			{IA: ia(2, 1), Eg: 4},
			{IA: ia(2, 11), In: 1},
		},
		MinKbps: 5,
		MaxKbps: 10,
	}
	req.Mac[3] = 0xBB
	got, err := UnmarshalDownSegReq(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Requester != req.Requester || len(got.Seg) != 2 ||
		got.MinKbps != 5 || got.MaxKbps != 10 || got.Mac[3] != 0xBB {
		t.Errorf("round trip: %+v", got)
	}
	if _, err := UnmarshalDownSegReq([]byte{tagDownReq, 1}); err == nil {
		t.Error("truncated request accepted")
	}
	if _, err := UnmarshalDownSegReq([]byte{tagSegSetup}); err == nil {
		t.Error("wrong tag accepted")
	}
}

func TestHandleDownReqSegmentChecks(t *testing.T) {
	f := twoISDFabric(t, nil)
	head := f.services[ia(2, 1)]
	downSeg := f.reg.DownSegments(ia(2, 11))[0]

	// Segment not starting at the head AS.
	bad := &DownSegReq{Requester: ia(2, 11), Seg: HopsFromSegment(downSeg)[1:], MaxKbps: 10}
	if resp := head.handleDownReq(bad); Refusal(resp[0]) != RefusedMalformed {
		t.Error("segment not starting here accepted")
	}
	// Requester not the last AS.
	bad2 := &DownSegReq{Requester: ia(1, 11), Seg: HopsFromSegment(downSeg), MaxKbps: 10}
	if resp := head.handleDownReq(bad2); Refusal(resp[0]) != RefusedMalformed {
		t.Error("wrong requester accepted")
	}
}
