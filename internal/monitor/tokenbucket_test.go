package monitor

import (
	"testing"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

func rid(n uint32) reservation.ID {
	return reservation.ID{SrcAS: topology.MustIA(1, 9), Num: n}
}

func TestTokenBucketConformingRate(t *testing.T) {
	// 8 Mbps = 1 MB/s. Sending 1000-byte packets at exactly 1000 pps
	// conforms indefinitely.
	tb := NewTokenBucket(8_000, BurstBytesFor(8_000), 0)
	var dropped int
	for i := 1; i <= 10_000; i++ {
		if !tb.Allow(int64(i)*1e6, 1000) { // one packet per ms
			dropped++
		}
	}
	if dropped != 0 {
		t.Errorf("conforming flow dropped %d packets", dropped)
	}
}

func TestTokenBucketOveruseDropped(t *testing.T) {
	// Same 8 Mbps bucket, but 2× rate: about half must be dropped.
	tb := NewTokenBucket(8_000, BurstBytesFor(8_000), 0)
	var passed int
	const n = 10_000
	for i := 1; i <= n; i++ {
		if tb.Allow(int64(i)*5e5, 1000) { // one packet per 0.5 ms
			passed++
		}
	}
	// Long-run pass rate ≈ 50% (plus one burst's worth).
	if passed < n*45/100 || passed > n*55/100 {
		t.Errorf("passed %d of %d at 2× rate, want ≈ half", passed, n)
	}
}

func TestTokenBucketBurst(t *testing.T) {
	tb := NewTokenBucket(8_000, 10_000, 0)
	// A back-to-back burst within the allowance passes…
	for i := 0; i < 10; i++ {
		if !tb.Allow(1, 1000) {
			t.Fatalf("burst packet %d dropped", i)
		}
	}
	// …the next packet exceeds it.
	if tb.Allow(1, 1000) {
		t.Error("packet beyond burst allowed")
	}
	// After enough refill time, packets pass again (2 ms → 2000 bytes).
	if !tb.Allow(2e6, 1000) {
		t.Error("packet after refill dropped")
	}
}

func TestTokenBucketLongRunRateQuick(t *testing.T) {
	// Property: over a long run, passed bytes never exceed
	// rate×time + burst.
	for _, rateKbps := range []uint64{1000, 8000, 100_000} {
		burst := BurstBytesFor(rateKbps)
		tb := NewTokenBucket(rateKbps, burst, 0)
		var passedBytes float64
		const durNs = int64(2e9)
		step := int64(1e5) // dense 0.1 ms probes of 500-byte packets
		for now := step; now <= durNs; now += step {
			if tb.Allow(now, 500) {
				passedBytes += 500
			}
		}
		limit := float64(rateKbps)*1000/8*float64(durNs)/1e9 + burst + 500
		if passedBytes > limit {
			t.Errorf("rate %d: passed %.0f bytes > limit %.0f", rateKbps, passedBytes, limit)
		}
	}
}

func TestSetRateTakesEffect(t *testing.T) {
	tb := NewTokenBucket(8_000, BurstBytesFor(8_000), 0)
	tb.SetRate(16_000)
	var passed int
	for i := 1; i <= 1000; i++ {
		if tb.Allow(int64(i)*5e5, 1000) { // 2 MB/s offered
			passed++
		}
	}
	if passed < 950 {
		t.Errorf("after doubling the rate, only %d/1000 passed", passed)
	}
}

func TestFlowMonitorIsolatesFlows(t *testing.T) {
	m := NewFlowMonitor()
	// Flow 1 floods; flow 2 conforms. Flow 2 must be unaffected.
	var f2dropped int
	for i := 1; i <= 1000; i++ {
		now := int64(i) * 1e6
		m.Allow(rid(1), 8_000, 1500, now) // 12 Mbps offered on 8 Mbps
		m.Allow(rid(1), 8_000, 1500, now)
		if !m.Allow(rid(2), 8_000, 1000, now) { // exactly 8 Mbps
			f2dropped++
		}
	}
	if f2dropped != 0 {
		t.Errorf("conforming flow lost %d packets to a noisy neighbor", f2dropped)
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d", m.Len())
	}
	m.Forget(rid(1))
	if m.Len() != 1 {
		t.Errorf("Len after Forget = %d", m.Len())
	}
}

func TestFlowMonitorRateUpdate(t *testing.T) {
	m := NewFlowMonitor()
	now := int64(1e9)
	m.Allow(rid(1), 8_000, 1000, now)
	// Renewal doubled the reservation: the monitor must honor it.
	var passed int
	for i := 1; i <= 1000; i++ {
		if m.Allow(rid(1), 16_000, 1000, now+int64(i)*5e5) {
			passed++
		}
	}
	if passed < 950 {
		t.Errorf("passed %d/1000 after rate increase", passed)
	}
}

func TestBlocklist(t *testing.T) {
	b := NewBlocklist()
	attacker := topology.MustIA(1, 66)
	if b.Blocked(attacker, 100) {
		t.Error("empty blocklist blocks")
	}
	b.Block(attacker, 0)
	if !b.Blocked(attacker, 100) {
		t.Error("permanent block not effective")
	}
	b.Unblock(attacker)
	if b.Blocked(attacker, 100) {
		t.Error("unblock not effective")
	}
	b.Block(attacker, 200)
	if !b.Blocked(attacker, 199) {
		t.Error("timed block not effective before expiry")
	}
	if b.Blocked(attacker, 200) {
		t.Error("timed block effective after expiry")
	}
	if b.Len() != 0 {
		t.Errorf("expired entry not removed, Len = %d", b.Len())
	}
}

func BenchmarkFlowMonitorAllow(b *testing.B) {
	m := NewFlowMonitor()
	for i := uint32(0); i < 1024; i++ {
		m.Allow(rid(i), 8000, 1000, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Allow(rid(uint32(i)%1024), 8000, 1000, int64(i)*1000)
	}
}

// TestTokenBucketClockRegression locks in the non-monotonic-timestamp
// semantics: a packet stamped before the last refill gets no tokens and
// must not move the refill clock backwards (which would let the next
// in-order packet double-refill the interval).
func TestTokenBucketClockRegression(t *testing.T) {
	// 8 Mbps, burst 1500 bytes. rate = 1 byte/µs.
	tb := NewTokenBucket(8_000, 1500, 1e9)
	if !tb.Allow(1e9, 1500) {
		t.Fatal("burst-sized packet did not conform on a full bucket")
	}
	// Bucket is empty. A regressed timestamp must neither refill nor
	// admit.
	if tb.Allow(1e9-5e6, 100) {
		t.Error("packet admitted from an empty bucket on a regressed clock")
	}
	if tb.lastNs != 1e9 {
		t.Errorf("regressed timestamp moved lastNs to %d", tb.lastNs)
	}
	// 1 ms forward refills exactly 1000 bytes — once.
	if !tb.Allow(1e9+1e6, 1000) {
		t.Error("refilled packet dropped")
	}
	if tb.Allow(1e9+1e6, 1) {
		t.Error("over-refill: more than 1000 bytes after 1 ms")
	}
	// Regress again, then return to the same instant: no double refill.
	if tb.Allow(1e9, 1) {
		t.Error("regressed packet admitted")
	}
	if tb.Allow(1e9+1e6, 1) {
		t.Error("interval was refilled twice after a clock regression")
	}
}

// TestFlowMonitorClockRegression exercises the same guarantee through
// Allow and AllowBatch, which share buckets across differently-stamped
// calls.
func TestFlowMonitorClockRegression(t *testing.T) {
	m := NewFlowMonitor()
	id := rid(1)
	// Drain the burst at t=1s.
	if !m.Allow(id, 8_000, uint32(BurstBytesFor(8_000)), 1e9) {
		t.Fatal("burst did not conform")
	}
	// A batch stamped in the past must not refill the drained bucket.
	ids := []reservation.ID{id, id}
	rates := []uint64{8_000, 8_000}
	sizes := []uint32{100, 0} // second entry is a hole
	allowed := make([]bool, 2)
	m.AllowBatch(ids, rates, sizes, 1e9-1e6, allowed)
	if allowed[0] {
		t.Error("regressed batch packet admitted from an empty bucket")
	}
	if allowed[1] {
		t.Error("hole entry reported allowed")
	}
	// Forward progress still refills normally.
	if !m.Allow(id, 8_000, 1000, 1e9+1e6) {
		t.Error("refilled packet dropped after regression")
	}
}

// TestWatchTableLifecycle walks one router-side entry through its life: the
// flagging packet makes it and is policed, Drain reports it once with its
// lifetime, a conforming packet of a renewed version does not extend it, a
// non-conforming one does, and the first packet of the second it expires in
// drops it — in shard mode together with its hold on the pooled reserve.
func TestWatchTableLifecycle(t *testing.T) {
	pool := NewReservePool()
	for name, m := range map[string]*FlowMonitor{"plain": NewFlowMonitor(), "shard": NewShardFlowMonitor(pool, 0)} {
		const sec = int64(1e9)
		if watched, ok := m.Police(rid(1), 8_000, 1000, 116, 100*sec); watched || !ok {
			t.Fatalf("%s: unwatched flow: watched=%v ok=%v", name, watched, ok)
		}
		if !m.Escalate(rid(1), 8_000, 1000, 116, 100*sec) || m.Len() != 1 {
			t.Fatalf("%s: flagging packet dropped by its fresh bucket, or not watched after", name)
		}
		m.Watch(rid(2), 0) // an operator's seed: no lifetime until its first packet
		if got := m.Drain(); len(got) != 1 || got[rid(1)] != 116 || m.Drain() != nil {
			t.Fatalf("%s: Drain = %v, want the escalated flow once", name, got)
		}
		// A renewed version (expT 128) that conforms leaves the lifetime alone…
		if watched, ok := m.Police(rid(1), 8_000, 1000, 128, 101*sec); !watched || !ok {
			t.Fatalf("%s: conforming watched packet: watched=%v ok=%v", name, watched, ok)
		}
		m.Police(rid(9), 8_000, 1000, 200, 116*sec)
		if m.Len() != 1 {
			t.Fatalf("%s: %d entries at the flagged version's expiry, want the seed only", name, m.Len())
		}
		// …and one that does not conform extends it to its own expiry.
		m.Escalate(rid(1), 8_000, 1000, 132, 116*sec)
		burst := uint32(BurstBytesFor(8_000))
		if _, ok := m.Police(rid(1), 8_000, burst, 144, 116*sec); ok {
			t.Fatalf("%s: a burst-sized packet conformed right after another packet", name)
		}
		m.Police(rid(9), 8_000, 1000, 200, 132*sec)
		if _, ok := m.Police(rid(2), 8_000, 1000, 140, 133*sec); !ok || m.Len() != 2 {
			t.Fatalf("%s: overuser dropped at its old expiry, or the seed's first packet refused (%d entries)", name, m.Len())
		}
		m.Police(rid(9), 8_000, 1000, 200, 144*sec)
		if m.Len() != 0 || pool.Len() != 0 {
			t.Fatalf("%s: %d entries and %d pooled reserves after every lifetime passed", name, m.Len(), pool.Len())
		}
	}
}
