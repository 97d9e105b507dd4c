package cserv

import (
	"sync"
	"testing"

	"colibri/internal/topology"
)

// TestCPlaneTickRenewRace runs Tick expiry concurrently with RenewBatch
// waves — under -race this proves the shard mutexes cover everything the two
// paths share (the static shardown/atomics invariants cross-checked
// dynamically). The clock advances from the ticking goroutine, so renewals
// race against genuine expiries: an individual renewal may fail when Tick
// reaped its record first, but the engine must stay consistent — no renewal
// may both succeed and leave a reaped record, and counts must reconcile at
// the end.
func TestCPlaneTickRenewRace(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 4, clk)

	const nSeg = 64
	items := make([]EERRenewal, 0, nSeg)
	for i := uint32(0); i < nSeg; i++ {
		req := segReq(i, topology.ASID(10+i%7), topology.IfID(1+i%4), topology.IfID(1+(i+1)%4), 2_000)
		if _, err := cp.AddSegR(req); err != nil {
			t.Fatal(err)
		}
		if err := cp.SetupEER(eid(i), req.ID, 500, clk.now()+8); err != nil {
			t.Fatal(err)
		}
		items = append(items, EERRenewal{EER: eid(i), Seg: req.ID, BwKbps: 500, ExpT: 0})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			clk.step(1)
			cp.Tick()
			cp.Counts()
		}
	}()

	results := make([]RenewResult, len(items))
	for wave := 0; wave < 200; wave++ {
		now := clk.now()
		for i := range items {
			items[i].ExpT = now + 8
		}
		cp.RenewBatch(items, results)
		for i, r := range results {
			// A renewal may fail when the ticking goroutine reaped the
			// record first; a success must report the granted bandwidth.
			if r.Err == nil && r.Granted == 0 {
				t.Fatalf("wave %d renewal %d: success with zero grant", wave, i)
			}
		}
	}
	close(stop)
	wg.Wait()

	cp.Tick()
	ct := cp.Counts()
	if ct.SegRs != nSeg {
		t.Fatalf("SegRs = %d after the run, want %d (segment reservations never expire here)", ct.SegRs, nSeg)
	}
	if ct.EERs < 0 || ct.EERs > nSeg {
		t.Fatalf("EERs = %d out of range [0,%d]", ct.EERs, nSeg)
	}
}
