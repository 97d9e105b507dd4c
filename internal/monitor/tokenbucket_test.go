package monitor

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

func rid(n uint32) reservation.ID {
	return reservation.ID{SrcAS: topology.MustIA(1, 9), Num: n}
}

// burstBytes is the burst at rateKbps in whole bytes (for rates below
// 343 597 383 kbps, whose bursts fit 32 bits).
func burstBytes(rateKbps uint32) uint32 { return uint32(BurstFor(rateKbps) / MicrobitsPerByte) }

func TestTokenBucketConformingRate(t *testing.T) {
	// 8 Mbps = 1 MB/s. Sending 1000-byte packets at exactly 1000 pps
	// conforms indefinitely.
	tb := FullBucket(8_000, 0)
	var dropped int
	for i := 1; i <= 10_000; i++ {
		if !tb.Allow(8_000, int64(i)*1e6, 1000) { // one packet per ms
			dropped++
		}
	}
	if dropped != 0 {
		t.Errorf("conforming flow dropped %d packets", dropped)
	}
}

func TestTokenBucketOveruseDropped(t *testing.T) {
	// Same 8 Mbps bucket, but 2× rate: about half must be dropped.
	tb := FullBucket(8_000, 0)
	var passed int
	const n = 10_000
	for i := 1; i <= n; i++ {
		if tb.Allow(8_000, int64(i)*5e5, 1000) { // one packet per 0.5 ms
			passed++
		}
	}
	// Long-run pass rate ≈ 50% (plus one burst's worth).
	if passed < n*45/100 || passed > n*55/100 {
		t.Errorf("passed %d of %d at 2× rate, want ≈ half", passed, n)
	}
}

func TestTokenBucketBurst(t *testing.T) {
	// 800 kbps = 100 bytes per ms, with a burst of 0.1 s: 10 000 bytes.
	const rate = 800
	tb := FullBucket(rate, 0)
	// A back-to-back burst within the allowance passes…
	for i := 0; i < 10; i++ {
		if !tb.Allow(rate, 1, 1000) {
			t.Fatalf("burst packet %d dropped", i)
		}
	}
	// …the next packet exceeds it.
	if tb.Allow(rate, 1, 1000) {
		t.Error("packet beyond burst allowed")
	}
	// After enough refill time, packets pass again (20 ms → 2000 bytes).
	if !tb.Allow(rate, 2e7, 1000) {
		t.Error("packet after refill dropped")
	}
}

func TestTokenBucketLongRunRateQuick(t *testing.T) {
	// Property: over a long run, passed bytes never exceed
	// rate×time + burst.
	for _, rateKbps := range []uint64{1000, 8000, 100_000} {
		burst := int64(burstBytes(uint32(rateKbps)))
		tb := FullBucket(uint32(rateKbps), 0)
		var passedBytes int64
		const durNs = int64(2e9)
		step := int64(1e5) // dense 0.1 ms probes of 500-byte packets
		for now := step; now <= durNs; now += step {
			if tb.Allow(uint32(rateKbps), now, 500) {
				passedBytes += 500
			}
		}
		limit := int64(rateKbps)*1000/8*durNs/1e9 + burst + 500
		if passedBytes > limit {
			t.Errorf("rate %d: passed %d bytes > limit %d", rateKbps, passedBytes, limit)
		}
	}
}

func TestSetRateTakesEffect(t *testing.T) {
	tb := FullBucket(8_000, 0)
	tb.Clip(16_000)
	var passed int
	for i := 1; i <= 1000; i++ {
		if tb.Allow(16_000, int64(i)*5e5, 1000) { // 2 MB/s offered
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
	// 8 Mbps, burst 100 000 bytes. rate = 1 byte/µs.
	const rate = 8_000
	tb := FullBucket(rate, 1e9)
	if !tb.Allow(rate, 1e9, burstBytes(rate)) {
		t.Fatal("burst-sized packet did not conform on a full bucket")
	}
	// Bucket is empty. A regressed timestamp must neither refill nor
	// admit.
	if tb.Allow(rate, 1e9-5e6, 100) {
		t.Error("packet admitted from an empty bucket on a regressed clock")
	}
	if tb.lastNs != 1e9 {
		t.Errorf("regressed timestamp moved lastNs to %d", tb.lastNs)
	}
	// 1 ms forward refills exactly 1000 bytes — once.
	if !tb.Allow(rate, 1e9+1e6, 1000) {
		t.Error("refilled packet dropped")
	}
	if tb.Allow(rate, 1e9+1e6, 1) {
		t.Error("over-refill: more than 1000 bytes after 1 ms")
	}
	// Regress again, then return to the same instant: no double refill.
	if tb.Allow(rate, 1e9, 1) {
		t.Error("regressed packet admitted")
	}
	if tb.Allow(rate, 1e9+1e6, 1) {
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
	if !m.Allow(id, 8_000, burstBytes(8_000), 1e9) {
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
		burst := burstBytes(8_000)
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

// refBucket is the token bucket as it was before it kept only a fill and a
// timestamp — its rate in bytes per nanosecond, its burst and its nominal
// rate beside it — computed in exact rationals: the refill interval
// unclamped, the burst from its own formula, nothing rounded. It is the
// oracle TestTokenBucketMatchesReference, TestWatchEntryMatchesReference and
// FuzzTokenBucket hold TokenBucket and its holder's rate to.
type refBucket struct {
	rate, burst, tokens *big.Rat // bytes per ns, bytes, bytes
	lastNs              int64
	rateKbps            uint64
}

// refRate is rateKbps in bytes per nanosecond: rate · 1000 / 8 / 10⁹.
func refRate(rateKbps uint64) *big.Rat {
	return new(big.Rat).SetFrac(new(big.Int).SetUint64(rateKbps), big.NewInt(8_000_000))
}

// refBurst is a tenth of a second at rateKbps, but at least 1500 bytes.
func refBurst(rateKbps uint64) *big.Rat {
	b := new(big.Rat).Mul(refRate(rateKbps), big.NewRat(100_000_000, 1))
	if b.Cmp(big.NewRat(1500, 1)) < 0 {
		b.SetInt64(1500)
	}
	return b
}

func newRefBucket(rateKbps uint64, nowNs int64) refBucket {
	burst := refBurst(rateKbps)
	return refBucket{rate: refRate(rateKbps), burst: burst, tokens: new(big.Rat).Set(burst), lastNs: nowNs, rateKbps: rateKbps}
}

func (tb *refBucket) Allow(nowNs int64, sizeBytes uint32) bool {
	if nowNs > tb.lastNs {
		credit := new(big.Rat).Mul(big.NewRat(nowNs-tb.lastNs, 1), tb.rate)
		tb.tokens.Add(tb.tokens, credit)
		if tb.tokens.Cmp(tb.burst) > 0 {
			tb.tokens.Set(tb.burst)
		}
		tb.lastNs = nowNs
	}
	need := big.NewRat(int64(sizeBytes), 1)
	if tb.tokens.Cmp(need) < 0 {
		return false
	}
	tb.tokens.Sub(tb.tokens, need)
	return true
}

func (tb *refBucket) SetRate(rateKbps uint64) {
	tb.rateKbps = rateKbps
	tb.rate = refRate(rateKbps)
	tb.burst = refBurst(rateKbps)
	if tb.tokens.Cmp(tb.burst) > 0 {
		tb.tokens.Set(tb.burst)
	}
}

// holds reports whether a fill in micro-bits is exactly the reference's.
func (tb *refBucket) holds(fill uint64) bool {
	return new(big.Rat).SetFrac(new(big.Int).SetUint64(fill), big.NewInt(MicrobitsPerByte)).Cmp(tb.tokens) == 0
}

// TestTokenBucketMatchesReference drives a TokenBucket, with its rate kept
// beside it, and the reference bucket through the same random packets and
// rate changes — rates up and down across the 1500-byte burst floor and up to
// 2³²−1 kbps, sizes from 1 byte past the burst, timestamps that step forward,
// repeat the same nanosecond and regress — and demands the same verdict for
// every packet and exactly the reference's fill and refill time after every
// step.
func TestTokenBucketMatchesReference(t *testing.T) {
	rates := []uint32{1, 64, 119, 120, 121, 1000, 8_000, 16_000, 1_000_000, math.MaxUint32}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rate := rates[rng.Intn(len(rates))]
		now := rng.Int63n(1e12)
		tb, ref := FullBucket(rate, now), newRefBucket(uint64(rate), now)
		changes, regressions, repeats := 0, 0, 0
		for step := 0; step < 20_000; step++ {
			switch k := rng.Intn(16); {
			case k == 0:
				if rng.Intn(2) == 0 {
					rate = rates[rng.Intn(len(rates))]
				} else {
					rate = uint32(rng.Int63n(1 << 32))
				}
				tb.Clip(rate)
				ref.SetRate(uint64(rate))
				changes++
				continue
			case k == 1:
				now -= rng.Int63n(1e7)
				regressions++
			case k < 5:
				repeats++
			default:
				now += rng.Int63n(2e6)
			}
			size := uint32(1 + rng.Intn(1600))
			if rng.Intn(32) == 0 {
				size = uint32(BurstFor(rate)/MicrobitsPerByte) + uint32(rng.Intn(3)) - 1
			}
			if got, want := tb.Allow(rate, now, size), ref.Allow(now, size); got != want {
				t.Fatalf("seed %d step %d: %d bytes at %d ns, %d kbps: verdict %v, reference %v", seed, step, size, now, rate, got, want)
			}
			if !ref.holds(tb.fill) || tb.lastNs != ref.lastNs {
				t.Fatalf("seed %d step %d: fill %d µbit at %d, reference %v B at %d", seed, step, tb.fill, tb.lastNs, ref.tokens, ref.lastNs)
			}
		}
		if changes == 0 || regressions == 0 || repeats == 0 {
			t.Fatalf("seed %d: %d rate changes, %d regressions, %d repeated instants", seed, changes, regressions, repeats)
		}
	}
}

// TestWatchEntryMatchesReference holds a watch-table entry to the reference
// bucket through AllowBatch, which follows every rate change — up and down,
// at the instant of a packet — before policing it: the packet must see the
// fill clipped to the new rate's burst.
func TestWatchEntryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rates := []uint64{100, 120, 8_000, 80_000}
	m := NewFlowMonitor()
	ids, sizes, allowed := []reservation.ID{rid(1)}, []uint32{0}, []bool{false}
	var ref refBucket
	now := int64(1e9)
	for step := 0; step < 20_000; step++ {
		rate := rates[rng.Intn(len(rates))]
		if rng.Intn(8) != 0 {
			now += rng.Int63n(1e6)
		}
		switch {
		case step == 0:
			ref = newRefBucket(rate, now)
		case rate != ref.rateKbps:
			ref.SetRate(rate)
		}
		sizes[0] = uint32(1 + rng.Intn(12_000))
		m.AllowBatch(ids, []uint64{rate}, sizes, now, allowed)
		if want := ref.Allow(now, sizes[0]); allowed[0] != want {
			t.Fatalf("step %d: %d bytes at %d kbps: verdict %v, reference %v", step, sizes[0], rate, allowed[0], want)
		}
		if f := m.flows.Get(rid(1)); !ref.holds(f.fill) {
			t.Fatalf("step %d: fill %d µbit, reference %v B", step, f.fill, ref.tokens)
		}
	}
}

// TestWideRateSaturates: the watch table keeps a 32-bit rate, so a 64-bit
// rate above 2³²−1 kbps given to AllowBatch or Ensure is policed at 2³²−1 —
// not at its low 32 bits — and, at the same rate, restarts no bucket.
func TestWideRateSaturates(t *testing.T) {
	const wide = 1<<32 + 8 // its low 32 bits are 8 kbps
	m := NewFlowMonitor()
	m.Ensure(rid(1), wide, 0)
	if f := m.flows.Get(rid(1)); f.rate != math.MaxUint32 || f.fill != BurstFor(math.MaxUint32) {
		t.Fatalf("Ensure at %d kbps: rate %d, fill %d", uint64(wide), f.rate, f.fill)
	}
	for i := range 3 {
		if !m.Allow(rid(1), wide, 1_000_000, 0) {
			t.Fatalf("packet %d: 1 MB refused at 2³²−1 kbps", i)
		}
	}
	if f := m.flows.Get(rid(1)); f.fill != BurstFor(math.MaxUint32)-3_000_000*MicrobitsPerByte {
		t.Fatalf("fill %d after 3 MB, want the burst less 3 MB: the bucket restarted", f.fill)
	}
}

// FuzzTokenBucket runs a script of packets and rate changes through a
// TokenBucket, its rate kept beside it, and the exact rational reference:
// every verdict, fill and refill time must be the reference's. Each step is
// five bytes: an op and a time step, a size and a rate.
func FuzzTokenBucket(f *testing.F) {
	f.Add([]byte{0, 1, 0xff, 0, 0, 1, 200, 0x10, 0x80, 0, 2, 0, 0, 0x40, 0x20})
	f.Add([]byte{3, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0xff, 0xff, 2, 0x30, 0x10, 0, 1})
	f.Add([]byte{1, 0, 0, 0, 119, 0, 0xff, 0xff, 5, 0xdc, 0, 0xff, 0xff, 5, 0xdc, 1, 0, 0, 0, 120})
	f.Fuzz(func(t *testing.T, script []byte) {
		rate := uint32(8_000)
		now := int64(1e9)
		tb, ref := FullBucket(rate, now), newRefBucket(uint64(rate), now)
		for i := 0; i+5 <= len(script); i += 5 {
			op, a, b := script[i], uint32(script[i+1])<<8|uint32(script[i+2]), uint32(script[i+3])<<8|uint32(script[i+4])
			switch op % 8 {
			case 0: // a rate change: small, mid or the widest rates
				rate = a<<16 | b
				if op&8 == 0 {
					rate >>= 16
				}
				tb.Clip(rate)
				ref.SetRate(uint64(rate))
				continue
			case 1: // the clock regresses
				now -= int64(a) * 1000
			case 2: // a long idle
				now += int64(a) << 20
			default:
				now += int64(a)
			}
			size := b
			if op&0x80 != 0 { // about the burst
				size = uint32(BurstFor(rate)/MicrobitsPerByte) + b%3 - 1
			}
			if got, want := tb.Allow(rate, now, size), ref.Allow(now, size); got != want {
				t.Fatalf("step %d: %d bytes at %d ns, %d kbps: verdict %v, reference %v", i/5, size, now, rate, got, want)
			}
			if !ref.holds(tb.fill) || tb.lastNs != ref.lastNs {
				t.Fatalf("step %d: fill %d µbit at %d, reference %v B at %d", i/5, tb.fill, tb.lastNs, ref.tokens, ref.lastNs)
			}
		}
	})
}

// BenchmarkTokenBucketAllow times the bare bucket: 1024 flows' buckets at
// 8 Mbps, 1000-byte packets 1 µs apart, the gateway's per-packet policing
// without its lock and record lookup.
func BenchmarkTokenBucketAllow(b *testing.B) {
	var tbs [1024]TokenBucket
	for i := range tbs {
		tbs[i] = FullBucket(8_000, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbs[i%1024].Allow(8_000, int64(i)*1000, 1000)
	}
}
