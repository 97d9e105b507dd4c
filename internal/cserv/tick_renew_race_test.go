package cserv

import (
	"sync"
	"testing"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// renewPopulation admits nSeg SegRs of 2 000 kbps and one EER of bw until expT
// per SegR, every third over two covering SegRs (its own and the next one's,
// a transfer-AS pair), and returns each EER's covering set. It fails the test
// unless some pair spans two shards, so that the two-lock paths are reached.
func renewPopulation(t *testing.T, cp *CPlane, nSeg int, bw uint64, expT uint32) [][]reservation.ID {
	t.Helper()
	segs := make([]reservation.ID, nSeg)
	for i := range segs {
		req := segReq(uint32(i), topology.ASID(10+i%7), topology.IfID(1+i%4), topology.IfID(1+(i+1)%4), 2_000)
		if _, err := cp.AddSegR(req); err != nil {
			t.Fatal(err)
		}
		segs[i] = req.ID
	}
	cover := make([][]reservation.ID, nSeg)
	crossShard := false
	for i := range cover {
		cover[i] = []reservation.ID{segs[i]}
		if i%3 == 0 {
			next := segs[(i+1)%nSeg]
			cover[i] = append(cover[i], next)
			crossShard = crossShard || cp.shardIndex(segs[i]) != cp.shardIndex(next)
		}
		if err := cp.SetupEERPath(eid(uint32(i)), cover[i], bw, expT, 1); err != nil {
			t.Fatal(err)
		}
	}
	if !crossShard {
		t.Fatal("no transfer pair spans two shards: the test would not reach the two-lock paths")
	}
	return cover
}

// TestCPlaneTickRenewRace runs Tick expiry concurrently with renewal waves,
// one RenewEERPath per EER — under -race this proves the shard mutexes cover
// everything the two paths share (the static shardown invariant
// cross-checked dynamically). A third of the EERs are transfer-AS pairs, most
// of whose SegRs sit in different shards, so Tick's removal of a lapsed pair
// (removePair, both locks by handle) races the renewals' two-lock path. The
// clock advances from the ticking goroutine, so renewals race against genuine
// expiries: an individual renewal may fail when Tick reaped its record first,
// but a success must report its grant, and afterwards the ledgers must carry
// exactly what the surviving records were charged.
func TestCPlaneTickRenewRace(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 4, clk)

	const nSeg = 64
	cover := renewPopulation(t, cp, nSeg, 500, clk.now()+8)

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

	for wave := 0; wave < 200; wave++ {
		now := clk.now()
		for i, segs := range cover {
			g, err := cp.RenewEERPath(eid(uint32(i)), segs, 500, now+8, 1)
			// A renewal may fail when the ticking goroutine reaped the
			// record first; a success must report the granted bandwidth.
			if err == nil && g == 0 {
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
	auditBooks(t, cp, clk.now(), "after the race")
}
