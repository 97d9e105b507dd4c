package cryptoutil

import (
	"crypto/cipher"
	"math/rand"
	"testing"
)

// encryptOne runs a single block through blk into a fresh array.
func encryptOne(blk cipher.Block, src *[16]byte) [16]byte {
	var dst [16]byte
	blk.Encrypt(dst[:], src[:])
	return dst
}

// TestSchedCacheMatchesExpand: a cached cipher must produce the same MAC
// block as a fresh expansion, across hits, misses, evictions and bypasses.
func TestSchedCacheMatchesExpand(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewSchedCache(8) // tiny: forces evictions and bypasses
	keys := make([]Key, 64)
	var block [16]byte
	rng.Read(block[:])
	for i := range keys {
		rng.Read(keys[i][:])
	}
	bypasses := 0
	for n := 0; n < 10_000; n++ {
		i := rng.Intn(len(keys))
		blk := c.Schedule(uint64(i), 1, &keys[i])
		if blk == nil {
			bypasses++
			continue
		}
		var ks AESSchedule
		var want [16]byte
		SigmaMAC(&ks, &keys[i], &want, &block)
		if encryptOne(blk, &block) != want {
			t.Fatalf("cipher mismatch for key %d after %d lookups", i, n)
		}
	}
	hits, misses := c.Stats()
	if hits == 0 || misses == 0 || bypasses == 0 {
		t.Errorf("over-subscribed cache should hit, miss, and bypass: hits=%d misses=%d bypasses=%d",
			hits, misses, bypasses)
	}
}

// TestSchedCacheEpochInvalidation: bumping the epoch must miss even for an
// identical tag, and the slot must be re-keyed from the new σ — the
// renewal semantics the gateway relies on.
func TestSchedCacheEpochInvalidation(t *testing.T) {
	c := NewSchedCache(16)
	k1 := Key{1}
	k2 := Key{2}
	var block [16]byte
	c.Schedule(7, 1, &k1)
	got := encryptOne(c.Schedule(7, 2, &k2), &block) // renewal: same tag, new epoch, new key
	var ks AESSchedule
	var want [16]byte
	SigmaMAC(&ks, &k2, &want, &block)
	if got != want {
		t.Fatal("epoch bump returned the stale schedule")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Errorf("hits=%d misses=%d, want 0/2", hits, misses)
	}
	// The new epoch now hits.
	c.Schedule(7, 2, &k2)
	if hits, _ := c.Stats(); hits != 1 {
		t.Errorf("hits=%d after re-lookup, want 1", hits)
	}
}

// TestSchedCacheHotEntriesSurvive: with second-chance eviction and
// admission bypass, an entry re-referenced between conflicting insertions
// keeps hitting.
func TestSchedCacheHotEntriesSurvive(t *testing.T) {
	c := NewSchedCache(2) // one set, two ways
	hot := Key{0xAA}
	c.Schedule(1, 1, &hot)
	for i := uint64(2); i < 100; i++ {
		k := Key{byte(i)}
		c.Schedule(i, 1, &k) // conflicting cold traffic
		c.Schedule(1, 1, &hot)
	}
	h0, _ := c.Stats()
	c.Schedule(1, 1, &hot)
	if h1, _ := c.Stats(); h1 != h0+1 {
		t.Error("hot entry evicted despite second chance")
	}
}

// TestSchedCacheAdmissionBypass: a miss on a set whose ways are both
// recently hit must return nil (no eviction, no fill) — and the resident
// entries must still hit afterwards.
func TestSchedCacheAdmissionBypass(t *testing.T) {
	c := NewSchedCache(2) // one set, two ways
	kA, kB, kC := Key{1}, Key{2}, Key{3}
	c.Schedule(10, 1, &kA) // fill sets ref
	c.Schedule(11, 1, &kB)
	if blk := c.Schedule(12, 1, &kC); blk != nil {
		t.Fatal("expected admission bypass on a set full of referenced entries")
	}
	h0, _ := c.Stats()
	c.Schedule(10, 1, &kA)
	c.Schedule(11, 1, &kB)
	if h1, _ := c.Stats(); h1 != h0+2 {
		t.Error("residents evicted by a bypassed miss")
	}
	// With the residents re-referenced, the outsider keeps bypassing.
	if blk := c.Schedule(12, 1, &kC); blk != nil {
		t.Error("expected repeat bypass while residents stay hot")
	}
}

// TestSchedCacheSizing: capacity rounds up to a power of two with 2 as the
// floor.
func TestSchedCacheSizing(t *testing.T) {
	for _, tc := range []struct{ req, want int }{{0, 2}, {1, 2}, {2, 2}, {3, 4}, {1000, 1024}} {
		if got := NewSchedCache(tc.req).Len(); got != tc.want {
			t.Errorf("NewSchedCache(%d).Len() = %d, want %d", tc.req, got, tc.want)
		}
	}
}

// BenchmarkSchedCacheHit measures the hot-path hit vs. a full expansion.
func BenchmarkSchedCacheHit(b *testing.B) {
	c := NewSchedCache(1024)
	k := Key{1}
	var block, mac [16]byte
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		c.Schedule(1, 1, &k) // fill before timing
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			EncryptAES128(c.Schedule(1, 1, &k), &mac, &block)
		}
	})
	b.Run("expand", func(b *testing.B) {
		b.ReportAllocs()
		var ks AESSchedule
		for i := 0; i < b.N; i++ {
			SigmaMAC(&ks, &k, &mac, &block)
		}
	})
}
