package replay

import (
	"math/rand"
	"testing"
)

// Tests pinning the filter's contract (see the package comment): no false
// negative while a copy is fresh, false positives within the configured
// rate at design load and after a surge, idle recycles that leave the bit
// arrays alone, shard ceilings that add up to one suppressor's, and a
// steady load that allocates nothing.

// remembered reports whether the suppressor would reject id stamped tsNs,
// without recording it; false if ts's bucket has no slot.
func remembered(s *Suppressor, id uint64, tsNs int64) bool {
	b := tsNs / s.window
	sl := &s.ring[b%int64(len(s.ring))]
	if sl.bucket != b {
		return false
	}
	h1, h2 := mix(id)
	for c := sl.first; c <= sl.cur; c++ {
		if sl.stages[c].test(h1, h2, s.k) {
			return true
		}
	}
	return false
}

// fill files n distinct random identifiers under tsNs, at now = tsNs.
func fill(s *Suppressor, rng *rand.Rand, n int, tsNs int64) {
	for ins := 0; ins < n; {
		if s.Check(rng.Uint64(), tsNs, tsNs) {
			ins++
		}
	}
}

// TestNoFalseNegatives drives random identifier streams, future- and
// past-skewed timestamps, byte-exact copies carrying their original's Ts at
// random lags, clock jumps and long silences against an exact oracle of what
// was accepted: no copy is ever accepted — while its Ts is within ±F of now
// the filter must find it, after that the freshness bound refuses it — and
// no timestamp outside ±F is accepted either.
func TestNoFalseNegatives(t *testing.T) {
	const window, horizon = 1000, 2500
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewCovering(Config{WindowNs: window, ExpectedPackets: 1 << 12}, horizon)
		type rec struct{ id, ts uint64 }
		var accepted []rec
		now := int64(10 * window)
		fresh, stale, silences := 0, 0, 0
		for step := 0; step < 60_000; step++ {
			switch r := rng.Intn(1000); {
			case r < 3: // jump 0–3 whole windows ahead
				now += int64(rng.Intn(4)) * window
			case r < 5: // long silence
				now += 2*horizon + int64(rng.Intn(5*window))
				silences++
			default:
				now += int64(rng.Intn(3))
			}
			if len(accepted) > 0 && rng.Intn(4) == 0 {
				// Replay something accepted up to a few hundred packets ago.
				c := accepted[len(accepted)-1-rng.Intn(min(len(accepted), 400))]
				if s.Check(c.id, int64(c.ts), now) {
					t.Fatalf("seed %d step %d: copy stamped %d accepted at %d (F %d)", seed, step, c.ts, now, horizon)
				}
				if d := now - int64(c.ts); d <= horizon {
					fresh++
				} else {
					stale++
				}
				continue
			}
			// A fresh identifier, stamped up to F + W either side of now.
			ts := now + int64(rng.Intn(2*(horizon+window)+1)) - horizon - window
			id := rng.Uint64()
			ok := s.Check(id, ts, now)
			if ok && (ts < now-horizon || ts > now+horizon) {
				t.Fatalf("seed %d step %d: Ts %d accepted at %d, outside ±%d", seed, step, ts, now, horizon)
			}
			if ok {
				accepted = append(accepted, rec{id, uint64(ts)})
			}
		}
		if fresh < 5000 || stale < 100 || silences < 20 {
			t.Fatalf("seed %d: only %d fresh and %d stale copies and %d silences exercised", seed, fresh, stale, silences)
		}
	}
}

// TestFalsePositiveRateAtDesignLoad fills one bucket with exactly
// ExpectedPackets distinct identifiers and probes fresh ones: the observed
// rejection rate must stay within 1.5× the configured FalsePositiveRate
// (the default 10⁻⁴; the defaults' geometry, k = 13, at a smaller n). In
// the steady case the bucket before was full too, so the chain is the one
// full-size stage; in the surge case it was light, so the chain starts at
// the smallest stage and climbs through every size.
func TestFalsePositiveRateAtDesignLoad(t *testing.T) {
	const n = 1 << 16
	probes := 4_000_000
	if testing.Short() {
		probes = 400_000
	}
	for _, tc := range []struct {
		name  string
		light int
	}{{"steady", n}, {"surge", 100}} {
		s := New(Config{ExpectedPackets: n})
		rng := rand.New(rand.NewSource(5))
		w := s.window
		fill(s, rng, tc.light, w/2)
		fill(s, rng, n, w+w/2)
		sl, first := s.last, len(s.sizes)-1
		if tc.light < n/4 {
			first = 0
		}
		if sl.n != n || sl.first != first || sl.cur != len(s.sizes)-1 {
			t.Fatalf("%s: bucket holds %d in a chain of sizes %d…%d of %d", tc.name, sl.n, sl.first, sl.cur, len(s.sizes))
		}
		fp := 0
		for i := 0; i < probes; i++ {
			if remembered(s, rng.Uint64(), w+w/2) {
				fp++
			}
		}
		rate, p := float64(fp)/float64(probes), 1e-4
		t.Logf("%s: chain of %d stages, %d false positives in %d probes: %.3g (configured %.3g)",
			tc.name, sl.cur-sl.first+1, fp, probes, rate, p)
		if rate > 1.5*p {
			t.Errorf("%s: false-positive rate %.3g at design load exceeds 1.5 × %.3g", tc.name, rate, p)
		}
	}
}

// TestSmallFilterFalsePositives: a small stage at a quarter of its capacity
// must run at its textbook rate, (1 − 2^−¼)¹³ ≈ 4 × 10⁻¹¹. Unremixed
// double hashing put all probes of an identifier whose h₂ lies near a small
// fraction of 2⁶⁴ onto a few bits, which at 1 024 identifiers rejected
// about one fresh identifier in 10⁶.
func TestSmallFilterFalsePositives(t *testing.T) {
	probes := 10_000_000
	if testing.Short() {
		probes = 1_000_000
	}
	for _, n := range []int{1 << 10, 1 << 14} {
		m, k := bloomParams(n, 1e-4)
		st := stage{bits: make([]uint64, (m+63)/64), m: m}
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n/4; i++ {
			h1, h2 := mix(rng.Uint64())
			st.testAndSet(h1, h2, k)
		}
		fp := 0
		for i := 0; i < probes; i++ {
			if h1, h2 := mix(rng.Uint64()); st.test(h1, h2, k) {
				fp++
			}
		}
		if fp != 0 {
			t.Errorf("n = %d at quarter load: %d false positives in %d probes", n, fp, probes)
		}
	}
}

// TestIdleRotationLeavesBitsAlone: recycling a slot whose buffers took no
// insert must not sweep them (the poison written behind the filter's back
// survives), idle buckets cost nothing at all, while a buffer that took a
// single insert is cleared in full when it is reopened.
func TestIdleRotationLeavesBitsAlone(t *testing.T) {
	const window = 1000
	poisoned := func(st *stage) (n int) {
		for _, w := range st.bits {
			if w == ^uint64(0) {
				n++
			}
		}
		return n
	}
	s := NewCovering(Config{WindowNs: window, ExpectedPackets: 1 << 12}, window)
	ringW := int64(len(s.ring)) * window
	st := &s.file(0).stages[0] // opened, no insert yet
	for i := range st.bits {
		st.bits[i] = ^uint64(0)
	}
	// The poison rejects every probe, so the slot's one buffer never takes an
	// insert however often the slot is recycled, or however long it idles.
	for _, now := range []int64{0, ringW, 2 * ringW, 10 * ringW, 11 * ringW} {
		if s.Check(42, now, now) {
			t.Fatalf("at %d: accepted through an all-ones filter", now)
		}
	}
	if n := poisoned(st); n != len(st.bits) {
		t.Errorf("a recycle swept a buffer that had taken no insert: %d of %d poisoned words left", n, len(st.bits))
	}

	s = NewCovering(Config{WindowNs: window, ExpectedPackets: 1 << 12}, window)
	if !s.Check(42, 0, 0) {
		t.Fatal("first sight rejected")
	}
	st = &s.ring[0].stages[0]
	for i := range st.bits {
		st.bits[i] = ^uint64(0)
	}
	if !s.Check(43, 10*ringW, 10*ringW) { // long silence, then the slot's bucket comes round
		t.Fatal("fresh identifier rejected after the slot was recycled")
	}
	if n := poisoned(st); n != 0 {
		t.Errorf("buffer with one insert: %d of %d poisoned words survived the reopen", n, len(st.bits))
	}
}

// TestSplitKeepsTotalSize: n shard ceilings add up to one suppressor's,
// within 1 %.
func TestSplitKeepsTotalSize(t *testing.T) {
	const horizon = 500e6
	full := Config{}.CeilingBytes(horizon)
	for _, n := range []int{2, 4, 8, 16} {
		shard := Config{}.Split(n).CeilingBytes(horizon)
		if d := float64(int64(n)*shard-full) / float64(full); d > 0.01 || d < -0.01 {
			t.Errorf("Split(%d): %d × %d B vs %d B full (%.2f %%)", n, n, shard, full, 100*d)
		}
	}
}

// TestSteadyLoadAllocatesNothing: once every slot has its buffers, a load
// that stays put turns buckets over without allocating.
func TestSteadyLoadAllocatesNothing(t *testing.T) {
	const window, perBucket = 1000, 3000
	s := NewCovering(Config{WindowNs: window}, 2500)
	ids, ts := uint64(0), int64(0)
	turn := func() {
		for i := 0; i < perBucket; i++ {
			ids++
			s.Check(ids, ts, ts)
		}
		ts += window
	}
	for i := 0; i < 4*len(s.ring); i++ {
		turn()
	}
	if a := testing.AllocsPerRun(1000, turn); a != 0 {
		t.Errorf("%.2f allocations per bucket turnover at steady load", a)
	}
	if s.resident > (Config{WindowNs: window}).CeilingBytes(2500)/8 {
		t.Errorf("steady load at %d of %d per bucket holds %d B", perBucket, 1<<20, s.resident)
	}
}
