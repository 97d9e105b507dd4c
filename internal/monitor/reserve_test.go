package monitor

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"colibri/internal/topology"
)

// shardMonitors builds n shard monitors over one shared reserve pool,
// mirroring what a sharded router constructs per core.
func shardMonitors(n int, chunkBytes uint32) (*ReservePool, []*FlowMonitor) {
	pool := NewReservePool()
	mons := make([]*FlowMonitor, n)
	for i := range mons {
		mons[i] = NewShardFlowMonitor(pool, chunkBytes)
	}
	return pool, mons
}

// TestHotFlowReachesFullRateOnOneShard is the regression test for the shared
// overflow reserve: RSS pins a flow to ONE shard, so with naive rate/N
// splitting an 8-shard data plane would cap the flow at 1/8 of its
// reservation. With the shared reserve the pinned shard must sustain the
// FULL reserved rate.
func TestHotFlowReachesFullRateOnOneShard(t *testing.T) {
	for _, chunk := range []uint32{0, 4096} {
		_, mons := shardMonitors(8, chunk)
		hot := mons[3] // the shard RSS pinned the flow to
		// 8 Mbps = 1 MB/s. 1000-byte packets at exactly 1000 pps conform
		// indefinitely — identical workload to TestTokenBucketConformingRate.
		var dropped int
		for i := 1; i <= 10_000; i++ {
			if !hot.Allow(rid(1), 8_000, 1000, int64(i)*1e6) {
				dropped++
			}
		}
		if dropped != 0 {
			t.Errorf("chunk=%v: hot flow pinned to one of 8 shards dropped %d packets at its reserved rate", chunk, dropped)
		}
	}
}

// TestShardsNeverExceedReservedAggregate: however greedily all shards claim,
// the total admitted across shards cannot exceed rate·T + burst, because
// every token originates from the one full-rate reserve.
func TestShardsNeverExceedReservedAggregate(t *testing.T) {
	for _, chunk := range []uint32{0, 4096} {
		_, mons := shardMonitors(8, chunk)
		rng := rand.New(rand.NewSource(7))
		// 8 Mbps for 10 s = 10 MB, plus the 100 ms burst (100 KB).
		const rateKbps = 8_000
		var admitted int64
		horizonNs := int64(10 * 1e9)
		for now := int64(1e6); now <= horizonNs; now += 1e6 {
			// Every ms, every shard tries to push 3 KB (24× the reservation).
			for _, m := range mons {
				sz := uint32(500 + rng.Intn(1000))
				if m.Allow(rid(2), rateKbps, sz, now) {
					admitted += int64(sz)
				}
			}
		}
		limit := int64(rateKbps)*1000/8*10 + int64(burstBytes(rateKbps))
		if admitted > limit {
			t.Errorf("chunk=%v: shards admitted %d bytes, exceeding reserved budget %d", chunk, admitted, limit)
		}
		// Sanity: the policer is not vacuously strict — most of the budget
		// must actually be usable.
		if admitted < limit*9/10 {
			t.Errorf("chunk=%v: shards admitted only %d of %d available bytes", chunk, admitted, limit)
		}
	}
}

// TestShardBucketMatchesSingleBucket: with chunk=0 (exact claims) a single
// shard in front of the reserve must reproduce a plain full-rate TokenBucket
// decision-for-decision, including across clock regressions and rate changes.
func TestShardBucketMatchesSingleBucket(t *testing.T) {
	single := NewFlowMonitor()
	_, mons := shardMonitors(1, 0)
	sharded := mons[0]
	rng := rand.New(rand.NewSource(42))
	now := int64(0)
	rate := uint64(8_000)
	for i := 0; i < 50_000; i++ {
		step := int64(rng.Intn(2_000_000)) - 200_000 // occasional regressions
		now += step
		if rng.Intn(5_000) == 0 {
			rate = uint64(1_000 + rng.Intn(20_000))
		}
		sz := uint32(64 + rng.Intn(1436))
		a := single.Allow(rid(3), rate, sz, now)
		b := sharded.Allow(rid(3), rate, sz, now)
		if a != b {
			t.Fatalf("packet %d (now=%d size=%d rate=%d): single=%v sharded=%v", i, now, sz, rate, a, b)
		}
	}
}

// TestReserveConcurrentClaims hammers one reserve from 8 goroutines (run with
// -race) and checks conservation: total granted ≤ initial burst + refills,
// and the fill after every claim within [0, burst].
func TestReserveConcurrentClaims(t *testing.T) {
	const rateKbps = 8_000
	r := NewReserve(rateKbps, 0)
	var granted atomic.Uint64
	var wg sync.WaitGroup
	const goroutines, claims = 8, 5_000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			local := uint64(0)
			for i := 0; i < claims; i++ {
				nowNs := int64(i) * 1e5 // all goroutines share the timeline
				local += r.Claim(uint64(64+rng.Intn(1436))*MicrobitsPerByte, uint64(rng.Intn(2048))*MicrobitsPerByte, nowNs)
				if f := r.fill.Load(); f > BurstFor(rateKbps) {
					t.Errorf("claim %d: fill %d µbit outside [0, %d]", i, f, BurstFor(rateKbps))
					return
				}
			}
			granted.Add(local)
		}(int64(g + 1))
	}
	wg.Wait()
	// Budget: the initial burst + the rate over the claims' time span. Every
	// change of the fill is a compare-and-swap to min(fill + credit, burst),
	// so no interleaving lends a claim more than the burst.
	span := uint64((claims - 1) * 1e5)
	if budget := BurstFor(rateKbps) + span*rateKbps; granted.Load() > budget {
		t.Fatalf("reserve granted %d µbit, conservation budget %d", granted.Load(), budget)
	}
}

// TestReserveSetRateRacesClaims interleaves rate changes with claims on two
// goroutines: one moves a shared clock forward and flips the rate between
// two values, whose bursts differ, the other claims at the clock's reading.
// At every step what the reserve granted plus what it holds stays within
// the higher burst and the higher rate over the time elapsed, the fill stays
// within [0, burst], and between two claims it never rises — only a claim's
// refill raises it. A clamp that stored a value read before a claim would
// raise it, handing that claim's tokens out twice; a refill that added
// before it clamped would let a claim take more than the burst and leave the
// fill below zero.
func TestReserveSetRateRacesClaims(t *testing.T) {
	const lo, hi = 8_000, 64_000
	r := NewReserve(hi, 0)
	var clock atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(done)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			clock.Add(int64(1 + i%50_000))
			r.SetRate(uint32(lo + (hi-lo)*(i%2)))
		}
	}()
	rng := rand.New(rand.NewSource(9))
	granted, held := uint64(0), r.fill.Load()
	for i := 0; i < 200_000; i++ {
		now := clock.Load()
		if f := r.fill.Load(); f > held {
			t.Fatalf("claim %d: the fill rose from %d to %d µbit since the last claim", i, held, f)
		}
		granted += r.Claim(uint64(64+rng.Intn(1436))*MicrobitsPerByte, 0, now)
		held = r.fill.Load()
		if held > BurstFor(hi) {
			t.Fatalf("claim %d: fill %d µbit above the larger burst %d", i, held, BurstFor(hi))
		}
		if budget := BurstFor(hi) + uint64(now)*hi; granted+held > budget {
			t.Fatalf("claim %d at %d ns: granted %d + held %d µbit > %d", i, now, granted, held, budget)
		}
	}
}

// TestReservePoolLifecycle covers Get-creates-once, Release by the last
// holder only, Len.
func TestReservePoolLifecycle(t *testing.T) {
	p := NewReservePool()
	a := p.Get(rid(4), 8_000, 0)
	if b := p.Get(rid(4), 8_000, 0); b != a {
		t.Error("second Get returned a different reserve")
	}
	p.Get(rid(5), 8_000, 0)
	if p.Len() != 2 {
		t.Fatalf("Len=%d, want 2", p.Len())
	}
	p.Release(rid(4))
	if c := p.Get(rid(4), 8_000, 0); c != a || p.Len() != 2 {
		t.Fatal("reserve dropped while a holder remained")
	}
	p.Release(rid(4))
	p.Release(rid(4))
	if p.Len() != 1 {
		t.Fatalf("Len after the last Release=%d, want 1", p.Len())
	}
	if c := p.Get(rid(4), 8_000, 0); c == a {
		t.Error("Get after the last Release returned the dropped reserve")
	}
}

// TestBlocklistMergeFrom checks the stricter-wins union semantics the sharded
// router's Merge relies on.
func TestBlocklistMergeFrom(t *testing.T) {
	asA, asB, asC, asD := topology.MustIA(1, 1), topology.MustIA(1, 2), topology.MustIA(1, 3), topology.MustIA(1, 4)
	dst := NewBlocklist()
	dst.Block(asA, 100)
	dst.Block(asB, 0) // permanent
	dst.Block(asC, 300)
	src := NewBlocklist()
	src.Block(asA, 200) // later expiry wins
	src.Block(asB, 500) // cannot downgrade permanent
	src.Block(asC, 0)   // permanent wins
	src.Block(asD, 50)  // new entry
	dst.MergeFrom(src)
	dst.MergeFrom(dst) // self-merge is a no-op
	dst.MergeFrom(nil) // nil-merge is a no-op
	want := map[topology.IA]uint32{asA: 200, asB: 0, asC: 0, asD: 50}
	got := map[topology.IA]uint32{}
	dst.Each(func(ia topology.IA, exp uint32) { got[ia] = exp })
	if len(got) != len(want) {
		t.Fatalf("merged blocklist %v, want %v", got, want)
	}
	for ia, exp := range want {
		if got[ia] != exp {
			t.Errorf("entry %v: expiry %d, want %d", ia, got[ia], exp)
		}
	}
}
