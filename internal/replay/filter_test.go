package replay

import (
	"math/rand"
	"testing"
)

// Tests pinning the filter's contract (see the package comment): no false
// negative inside a window, false positives within the configured rate at
// design load, idle rotations that leave the bit array alone, and shard
// filters that add up to one full filter.

// remembered reports whether the suppressor would reject id, without
// recording it.
func remembered(s *Suppressor, id uint64) bool {
	h1, h2 := mix(id)
	return s.prev.test(h1, h2) || s.cur.test(h1, h2)
}

// TestNoFalseNegatives drives random identifier streams with injected
// duplicates at random lags, across ordinary rotations, skipped windows and
// long silences, against an exact oracle of what was accepted when: a
// duplicate of anything accepted less than one window ago must be rejected,
// and after two windows without a packet nothing may be remembered.
func TestNoFalseNegatives(t *testing.T) {
	const window = 1000
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(Config{WindowNs: window, ExpectedPackets: 1 << 12})
		accepted := map[uint64]int64{} // id → time it was accepted
		var recent []uint64
		now, start := int64(0), int64(0) // start mirrors the suppressor's window start
		dups, silences := 0, 0
		for step := 0; step < 60_000; step++ {
			switch r := rng.Intn(1000); {
			case r < 3: // jump 0–3 whole windows ahead
				now += int64(rng.Intn(4)) * window
			case r < 5: // long silence
				now += 2*window + int64(rng.Intn(5*window))
			default:
				now += int64(rng.Intn(3))
			}
			silent := now-start >= 2*window
			if now-start >= window {
				start = now
			}
			if silent && len(recent) > 0 {
				// Both windows are stale: the filters are empty, so even a
				// Bloom false positive cannot reject this old identifier.
				silences++
				id := recent[rng.Intn(len(recent))]
				if !s.FreshAndUnique(id, now) {
					t.Fatalf("seed %d step %d: id accepted at %d still remembered at %d, two silent windows later",
						seed, step, accepted[id], now)
				}
				accepted[id] = now
				continue
			}
			if len(recent) > 0 && rng.Intn(4) == 0 {
				// Replay something seen up to a few hundred packets ago.
				lag := 1 + rng.Intn(min(len(recent), 400))
				id := recent[len(recent)-lag]
				fresh := s.FreshAndUnique(id, now)
				if at := accepted[id]; now-at < window {
					dups++
					if fresh {
						t.Fatalf("seed %d step %d: false negative: id accepted at %d accepted again at %d (window %d)",
							seed, step, at, now, window)
					}
				}
				if fresh {
					accepted[id] = now
				}
				continue
			}
			id := rng.Uint64()
			if s.FreshAndUnique(id, now) {
				accepted[id] = now
				recent = append(recent, id)
			}
		}
		if dups < 5000 || silences < 20 {
			t.Fatalf("seed %d: only %d in-window duplicates and %d silences exercised", seed, dups, silences)
		}
	}
}

// TestFalsePositiveRateAtDesignLoad fills one window with exactly
// ExpectedPackets distinct identifiers and probes fresh ones: the observed
// rejection rate must stay within 1.5× the configured FalsePositiveRate
// (the default 10⁻⁴; the defaults' geometry, k = 13, at a smaller n).
func TestFalsePositiveRateAtDesignLoad(t *testing.T) {
	const n = 1 << 16
	probes := 4_000_000
	if testing.Short() {
		probes = 400_000
	}
	s := New(Config{ExpectedPackets: n})
	rng := rand.New(rand.NewSource(5))
	for ins := 0; ins < n; {
		if s.FreshAndUnique(rng.Uint64(), 1) {
			ins++
		}
	}
	if got := s.Inserted(); got != n {
		t.Fatalf("Inserted() = %d, want %d", got, n)
	}
	fp := 0
	for i := 0; i < probes; i++ {
		if remembered(s, rng.Uint64()) {
			fp++
		}
	}
	rate := float64(fp) / float64(probes)
	t.Logf("%d false positives in %d probes: %.3g (configured %.3g)", fp, probes, rate, s.cfg.FalsePositiveRate)
	if rate > 1.5*s.cfg.FalsePositiveRate {
		t.Errorf("false-positive rate %.3g at design load exceeds 1.5 × %.3g", rate, s.cfg.FalsePositiveRate)
	}
}

// TestIdleRotationLeavesBitsAlone: rotating a window that took no insert
// must not sweep the bit array (the poison written behind the filter's back
// survives), while a window that took a single insert is cleared in full.
func TestIdleRotationLeavesBitsAlone(t *testing.T) {
	const window = 1000
	poison := func(b *bloom) {
		for i := range b.bits {
			b.bits[i] = ^uint64(0)
		}
	}
	count := func(b *bloom, want uint64) (n int) {
		for _, w := range b.bits {
			if w == want {
				n++
			}
		}
		return n
	}

	s := New(Config{WindowNs: window, ExpectedPackets: 1 << 12})
	a, b := s.cur, s.prev
	poison(a)
	poison(b)
	// An ordinary rotation, then a long silence: every probe hits poison and
	// is rejected, so no window ever takes an insert.
	for _, now := range []int64{window, 2 * window, 10 * window, 11 * window} {
		if s.FreshAndUnique(42, now) {
			t.Fatalf("at %d: accepted through an all-ones filter", now)
		}
	}
	if count(a, ^uint64(0)) != len(a.bits) || count(b, ^uint64(0)) != len(b.bits) {
		t.Error("a rotation swept a filter that had taken no insert")
	}

	s = New(Config{WindowNs: window, ExpectedPackets: 1 << 12})
	if !s.FreshAndUnique(42, 0) {
		t.Fatal("first sight rejected")
	}
	a = s.cur
	poison(a)
	s.FreshAndUnique(43, 10*window) // long silence: both filters reset, then a takes 43
	if n := count(a, ^uint64(0)); n != 0 {
		t.Errorf("window with one insert: %d of %d poisoned words survived the reset", n, len(a.bits))
	}
}

// TestSplitKeepsTotalSize: n shard filters together use the memory of one
// full filter, within 1 %.
func TestSplitKeepsTotalSize(t *testing.T) {
	full := len(New(Config{}).cur.bits)
	for _, n := range []int{2, 4, 8, 16} {
		shard := len(New(Config{}.Split(n)).cur.bits)
		if d := float64(n*shard-full) / float64(full); d > 0.01 || d < -0.01 {
			t.Errorf("Split(%d): %d × %d words vs %d full (%.2f %%)", n, n, shard, full, 100*d)
		}
	}
}
