package replay

import (
	"math/rand"
	"testing"
)

// freshness is the router's default bound, DefaultFreshnessNs.
const freshness = 500e6

func TestReplayCaught(t *testing.T) {
	s := NewCovering(Config{}, freshness)
	const ts = 12345e6
	id := PacketID(0x0001_000000000001, 42, ts)
	if !s.Check(id, ts, ts) {
		t.Fatal("first sight rejected")
	}
	for i := 0; i < 10; i++ {
		if s.Check(id, ts, ts+int64(i+1)*1e6) {
			t.Fatalf("replay %d accepted", i)
		}
	}
}

func TestDistinctPacketsAccepted(t *testing.T) {
	s := NewCovering(Config{ExpectedPackets: 1 << 16}, freshness)
	rejected := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		ts := int64(i) * 1000
		if !s.Check(PacketID(0x0001_000000000001, 42, uint64(ts)), ts, ts) {
			rejected++
		}
	}
	// Bloom false positives only, at a quarter of the smallest stages.
	if rejected != 0 {
		t.Errorf("%d of %d distinct packets rejected", rejected, n)
	}
}

// TestReplayCaughtAcrossWindowBoundary: a copy is filed under its own Ts,
// so it meets its original however many bucket widths later it arrives, up
// to the freshness bound, even when the original came just before a bucket
// boundary or stamped ahead of the receiver's clock.
func TestReplayCaughtAcrossWindowBoundary(t *testing.T) {
	const w = 1e8
	for _, tc := range []struct {
		name          string
		ts, arrivedAt int64
	}{
		{"mid-bucket", 15e8 + w/2, 15e8 + w/2},
		{"before a boundary", 16e8 - 1, 16e8 - 1},
		{"stamped 100 ms ahead", 15e8, 15e8 - 1e8},
	} {
		s := NewCovering(Config{WindowNs: w}, freshness)
		id := PacketID(1, 1, uint64(tc.ts))
		if !s.Check(id, tc.ts, tc.arrivedAt) {
			t.Fatalf("%s: first sight rejected", tc.name)
		}
		for _, lag := range []int64{1, 150e6, 250e6, 350e6, 450e6, 499e6, freshness} {
			if s.Check(id, tc.ts, tc.ts+lag) {
				t.Errorf("%s: replay %d ns after Ts accepted", tc.name, lag)
			}
		}
	}
}

// TestOldIdentifierForgottenAfterTwoWindows: once its bucket's Ts range has
// left ±F, a copy is refused by the freshness bound alone, and the slot that
// remembered it serves a newer bucket, where the same identifier is new.
func TestOldIdentifierForgottenAfterTwoWindows(t *testing.T) {
	const w = 1e8
	s := New(Config{WindowNs: w}) // F = W: a ring of four buckets
	id := PacketID(1, 1, 99)
	if !s.Check(id, 0, 0) {
		t.Fatal("first sight rejected")
	}
	if s.Check(id, 0, 25e7) {
		t.Error("copy accepted two and a half windows later")
	}
	ringW := int64(len(s.ring)) * w
	if !s.Check(id, ringW, ringW) {
		t.Error("identifier still remembered by the bucket that took over its slot")
	}
}

func TestRotationKeepsRecentWindow(t *testing.T) {
	s := NewCovering(Config{WindowNs: 1e8}, freshness)
	// Fill bucket 0 with ids, open bucket 1, confirm copies of bucket 0's ids
	// (with their own Ts) still rejected while new ones pass.
	ids := make([]uint64, 100)
	for i := range ids {
		ids[i] = PacketID(7, uint32(i), uint64(i))
		if !s.Check(ids[i], int64(i), int64(i)) {
			t.Fatalf("setup id %d rejected", i)
		}
	}
	now := int64(12e7) // inside bucket 1
	if !s.Check(PacketID(7, 1000, uint64(now)), now, now) {
		t.Error("fresh id rejected in the next bucket")
	}
	for i := range ids {
		if s.Check(ids[i], int64(i), now) {
			t.Fatalf("bucket-0 id %d accepted in bucket 1", i)
		}
	}
}

func TestPacketIDUniqueness(t *testing.T) {
	seen := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		id := PacketID(rng.Uint64(), rng.Uint32(), rng.Uint64())
		if seen[id] {
			t.Fatal("PacketID collision in 100k random inputs")
		}
		seen[id] = true
	}
	// Same tuple → same ID (determinism).
	if PacketID(1, 2, 3) != PacketID(1, 2, 3) {
		t.Error("PacketID not deterministic")
	}
	// Ts must matter.
	if PacketID(1, 2, 3) == PacketID(1, 2, 4) {
		t.Error("PacketID ignores Ts")
	}
}

func TestBloomParams(t *testing.T) {
	m, k := bloomParams(1<<20, 1e-4)
	if m == 0 || k < 1 || k > 16 {
		t.Errorf("bloomParams = %d, %d", m, k)
	}
	// Tiny n still yields a usable filter.
	m, k = bloomParams(1, 0.5)
	if m < 64 || k < 1 {
		t.Errorf("tiny bloomParams = %d, %d", m, k)
	}
}

func BenchmarkCheck(b *testing.B) {
	s := NewCovering(Config{}, freshness)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := int64(i) * 100
		s.Check(uint64(i), now, now)
	}
}
