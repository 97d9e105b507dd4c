package router

import (
	"encoding/binary"
	"sync/atomic"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
)

// Per-worker σ-derivation cache for the border router.
//
// Unlike the gateway — which owns its reservations and can key cached
// schedules by (ResID, hop, epoch) — the router is stateless and derives
// σ from untrusted packet fields (Eq. 4). A cache keyed by a *subset* of
// those fields would be poisonable: an attacker could warm a slot with a
// forged variant of a reservation and have later legitimate packets
// validated against the wrong σ (a false-drop DoS). The cache therefore
// stores the complete 48-byte EERAuthInput and a hit requires an exact
// byte-for-byte match, so a cached σ is always the one this router would
// derive from the packet itself. A hit skips both the 3-block CBC-MAC
// derivation of σ and the AES key expansion.
//
// Like cryptoutil.SchedCache, a fill expands the schedule inline in the
// entry, so neither hits nor misses allocate. Layout: power-of-two sets,
// 2-way associative, second-chance (reference-bit) eviction with admission
// bypass when a set is full of hot entries. Memory is bounded at ≈ 230 B ×
// entries. Renewals need no explicit invalidation: a new version changes
// the MAC input (Ver/ExpT/bandwidth), so it simply occupies a different
// entry.
type sigmaCache struct {
	mask uint64
	ents []sigmaEntry
	// hits/misses are written only by the owning worker's block() but read
	// by a sharded front end's Merge from another goroutine, so they are
	// atomic (single-writer: a plain Add, no contention; enforced by
	// colibri-vet).
	hits   atomic.Uint64 //colibri:singlewriter
	misses atomic.Uint64 //colibri:singlewriter
}

type sigmaEntry struct {
	in    [packet.EERAuthLen]byte
	valid bool
	ref   bool
	ks    cryptoutil.AESSchedule
}

func newSigmaCache(entries int) *sigmaCache {
	n := 2
	for n < entries {
		n <<= 1
	}
	return &sigmaCache{mask: uint64(n/2 - 1), ents: make([]sigmaEntry, n)}
}

// hashEERInput mixes the fixed-size MAC input word-wise (six 64-bit
// multiply-xorshift rounds — a byte-wise FNV costs 48 dependent multiplies
// on this per-packet path). Collisions only cost a probe mismatch; the
// exact-match check carries all correctness.
func hashEERInput(in *[packet.EERAuthLen]byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < packet.EERAuthLen; i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(in[i:])) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// block returns the expanded σ schedule for the given Eq. (4) MAC input,
// deriving σ with cbc and expanding on miss.
//
// block returns nil when the set is full of recently-hit entries
// (admission bypass, mirroring cryptoutil.SchedCache): the caller derives
// σ itself, and σ is not derived here. The returned schedule points into
// the cache and is only valid until the next call, which may overwrite it.
func (c *sigmaCache) block(in *[packet.EERAuthLen]byte, cbc *cryptoutil.CBCMAC) *cryptoutil.AESSchedule {
	i := (hashEERInput(in) & c.mask) * 2
	e0, e1 := &c.ents[i], &c.ents[i+1]
	// Conditional ref stores keep steady-state hits read-only (an
	// unconditional store would dirty the cache line on every probe).
	if e0.valid && e0.in == *in {
		if !e0.ref {
			e0.ref = true
		}
		c.hits.Add(1)
		return &e0.ks
	}
	if e1.valid && e1.in == *in {
		if !e1.ref {
			e1.ref = true
		}
		c.hits.Add(1)
		return &e1.ks
	}
	c.misses.Add(1)
	var v *sigmaEntry
	switch {
	case !e0.valid:
		v = e0
	case !e1.valid:
		v = e1
	case !e0.ref:
		v = e0
	case !e1.ref:
		v = e1
	default:
		e0.ref, e1.ref = false, false
		return nil
	}
	v.in = *in
	v.valid, v.ref = true, true
	var sigma cryptoutil.Key
	cbc.SumInto((*[cryptoutil.MACSize]byte)(&sigma), in[:])
	cryptoutil.ExpandAES128(&v.ks, &sigma)
	return &v.ks
}

func (c *sigmaCache) stats() (hits, misses uint64) { return c.hits.Load(), c.misses.Load() }
