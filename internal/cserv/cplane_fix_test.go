// cplane_fix_test.go — regressions for the control-plane edge-case sweep:
// exact per-shard capacity splitting, the dedup/stale/reject counter split,
// and concurrent renewal waves over the path face.
package cserv

import (
	"errors"
	"sync"
	"testing"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// TestShardedASCapacityExact is the regression for the capacity/K rounding
// bug: per-shard link (and internal-fabric) capacities must sum EXACTLY to
// the physical value for every capacity, including caps below the shard
// count — the old maxU64(1, cap/K) floor let K shards of a (K−1)-Kbps link
// admit more than the link carries, and otherwise silently lost up to K−1
// Kbps.
func TestShardedASCapacityExact(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		for _, capKbps := range []uint64{0, 1, 2, 3, 5, 7, 8, 1000, 1001, 1003} {
			as := cplaneAS(t, 3, 1_000)
			as.InternalCapacityKbps = capKbps
			// Set the capacity directly: the topology builder substitutes a
			// default for 0, and this regression needs the exact raw values.
			as.Interfaces[topology.IfID(1)].Link.CapacityKbps = capKbps
			var linkSum, internalSum uint64
			for i := 0; i < shards; i++ {
				clone := shardedAS(as, shards, i)
				internalSum += clone.InternalCapacityKbps
				linkSum += clone.Interfaces[topology.IfID(1)].Link.CapacityKbps
			}
			if shards == 1 {
				// Degenerate case returns the AS unchanged.
				linkSum = as.Interfaces[topology.IfID(1)].Link.CapacityKbps
				internalSum = as.InternalCapacityKbps
			}
			if linkSum != capKbps {
				t.Fatalf("shards=%d cap=%d: link shares sum to %d", shards, capKbps, linkSum)
			}
			if internalSum != capKbps {
				t.Fatalf("shards=%d cap=%d: internal shares sum to %d", shards, capKbps, internalSum)
			}
		}
	}
}

// TestShardShareSpread pins the remainder distribution: shares differ by at
// most one and the low-indexed shards carry the remainder.
func TestShardShareSpread(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		for _, capKbps := range []uint64{0, 1, 3, 9, 1001} {
			var sum uint64
			lo, hi := ^uint64(0), uint64(0)
			for i := 0; i < shards; i++ {
				s := shardShare(capKbps, shards, i)
				sum += s
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
			}
			if sum != capKbps {
				t.Fatalf("shards=%d cap=%d: sum=%d", shards, capKbps, sum)
			}
			if hi-lo > 1 {
				t.Fatalf("shards=%d cap=%d: shares spread %d..%d", shards, capKbps, lo, hi)
			}
		}
	}
}

// TestCPlaneCounterSplit is the regression for the reject-counter
// conflation: a renewal of an unknown (expired) EER must count as Stale,
// not Rejects, and an idempotent duplicate setup as Dedups — both
// distinguishable from a real ErrInsufficient refusal.
func TestCPlaneCounterSplit(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 4, clk)
	seg := segReq(1, 50, 1, 2, 10_000)
	if _, err := cp.AddSegR(seg); err != nil {
		t.Fatal(err)
	}
	if err := cp.SetupEER(eid(1), seg.ID, 10_000, clk.now()+16); err != nil {
		t.Fatal(err)
	}

	// eid(99) was never admitted: its renewal is stale.
	if _, err := cp.RenewEER(eid(99), seg.ID, 100, clk.now()+16); !errors.Is(err, ErrUnknownEER) {
		t.Fatalf("unknown renewal err=%v, want ErrUnknownEER", err)
	}
	if _, err := cp.RenewEER(eid(1), seg.ID, 10_000, clk.now()+16); err != nil {
		t.Fatalf("live renewal err=%v", err)
	}

	// A second full-size EER cannot fit → a real refusal.
	if err := cp.SetupEER(eid(2), seg.ID, 10_000, clk.now()+16); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("oversubscribed setup err=%v", err)
	}
	// Retrying the committed setup is dedup, not refusal.
	if err := cp.SetupEER(eid(1), seg.ID, 10_000, clk.now()+16); err == nil {
		t.Fatal("duplicate setup unexpectedly admitted")
	}

	ct := cp.Counts()
	if ct.Stale != 1 || ct.Dedups != 1 || ct.Rejects != 1 {
		t.Fatalf("stale=%d dedups=%d rejects=%d, want 1/1/1", ct.Stale, ct.Dedups, ct.Rejects)
	}
}

// renewal is one item of a test's renewal wave: what RenewEERPath is asked.
type renewal struct {
	eer  reservation.ID
	segs []reservation.ID
	bw   uint64
	expT uint32
	ver  uint16
}

// buildRenewScenario admits nSeg SegRs with one EER each and returns a
// renewal wave over them (some items target unknown EERs, some oversubscribe).
func buildRenewScenario(t *testing.T, cp *CPlane, clk *cpClock, nSeg int) []renewal {
	t.Helper()
	items := make([]renewal, 0, nSeg)
	for i := uint32(0); i < uint32(nSeg); i++ {
		req := segReq(i, topology.ASID(10+i%13), topology.IfID(1+i%4), topology.IfID(1+(i+1)%4), 2_000)
		if _, err := cp.AddSegR(req); err != nil {
			t.Fatal(err)
		}
		if err := cp.SetupEER(eid(i), req.ID, 400+uint64(i%5)*100, clk.now()+16); err != nil {
			t.Fatal(err)
		}
		want := uint64(500 + int(i%7)*300) // some renewals oversubscribe
		it := renewal{eer: eid(i), segs: []reservation.ID{req.ID}, bw: want, expT: clk.now() + 16, ver: uint16(i % 8)}
		if i%11 == 0 {
			it.eer = eid(i + 100_000) // unknown → stale
		}
		items = append(items, it)
	}
	return items
}

// TestCPlaneRenewPathConcurrentWaves drives concurrent renewal waves, one
// RenewEERPath per item, interleaved with single-op traffic; under -race this
// validates the locking discipline.
func TestCPlaneRenewPathConcurrentWaves(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 8, clk)
	items := buildRenewScenario(t, cp, clk, 400)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for _, it := range items {
					_, _ = cp.RenewEERPath(it.eer, it.segs, it.bw, it.expT, it.ver)
				}
			}
		}()
	}
	// Single-op traffic concurrent with the waves.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint32(0); i < 200; i++ {
			id := reservation.ID{SrcAS: ia(3, 9), Num: i}
			segs := items[int(i)%len(items)].segs
			if err := cp.SetupEERPath(id, segs, 1, clk.now()+16, 1); err == nil {
				cp.TeardownEERPath(id, segs)
			}
			_, _, _, _ = cp.LookupEER(items[int(i)%len(items)].eer, segs[0])
		}
	}()
	wg.Wait()
	cp.Tick()
	if ct := cp.Counts(); ct.EERs < 0 || ct.SegRs < 0 {
		t.Fatalf("negative counts: %+v", ct)
	}
}
