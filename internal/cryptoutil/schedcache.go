package cryptoutil

import "sync/atomic"

// σ-schedule caching for the data-plane hot path.
//
// A gateway expands every hop authenticator σ_i into a full AES-128 key
// schedule for every packet (SigmaMAC), although σ_i only changes when the
// reservation is renewed. The paper's DPDK pipeline amortizes exactly this
// fixed cost with hardware key expansion; caching the expanded state per
// (reservation, hop) turns it into a one-time cost per renewal epoch.
//
// A fill expands the schedule inline in the entry, so neither hits nor
// misses ever allocate, no matter how the workload churns.
//
// SchedCache is a bounded, power-of-two sized, 2-way set-associative array
// with second-chance (clock) eviction: each entry carries a reference bit
// that a hit sets and a full-set miss clears, so hot entries survive
// bursts of cold lookups. When a set is full of recently-hit entries, a
// miss is bypassed (Schedule returns nil) instead of evicting — admitting
// it would thrash. Lookups compare the full 64-bit tag and the 32-bit
// epoch, so a stale schedule can never be returned: renewal bumps the
// epoch and the old entry simply stops matching, then ages out through
// its reference bit. Memory is bounded at ≈ 200 B × entries.
//
// A SchedCache is not safe for concurrent use: each worker owns one
// (mirroring the per-lcore schedule tables of DPDK crypto drivers).
type SchedCache struct {
	mask uint64 // set index mask (sets = (len(ents)/2), power of two)
	ents []schedEntry
	// hits/misses are written only by the owning worker's Schedule but may
	// be read by a sharded front end's Merge from another goroutine, so they
	// are atomic (single-writer: a plain Add, no contention; enforced by
	// colibri-vet).
	hits   atomic.Uint64 //colibri:singlewriter
	misses atomic.Uint64 //colibri:singlewriter
}

type schedEntry struct {
	tag   uint64
	epoch uint32
	valid bool
	ref   bool // clock reference bit: set on hit, cleared on full-set miss
	ks    AESSchedule
}

// NewSchedCache builds a cache with at least the requested number of
// entries, rounded up to a power of two (minimum 2).
func NewSchedCache(entries int) *SchedCache {
	n := 2
	for n < entries {
		n <<= 1
	}
	return &SchedCache{mask: uint64(n/2 - 1), ents: make([]schedEntry, n)}
}

// Len returns the cache's entry count (its memory bound in schedules).
func (c *SchedCache) Len() int { return len(c.ents) }

// Stats returns the hit and miss counts since construction.
func (c *SchedCache) Stats() (hits, misses uint64) { return c.hits.Load(), c.misses.Load() }

// mix64 is the splitmix64 finalizer; it spreads dense tags (reservation
// IDs are sequential) across the sets.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Schedule returns the expanded σ schedule under (tag, epoch), filling a
// cache slot on miss. The caller must guarantee that (tag, epoch) uniquely
// identifies sigma — the gateway uses tag = resID‖hop and the per-install
// epoch, so equal pairs always carry equal keys.
//
// Schedule returns nil when the set is full of recently-hit entries
// (admission bypass): evicting a hot entry for a conflicting tag would
// thrash on every revisit, so the caller is expected to fall back to its
// own expansion (SigmaMAC) for this lookup. The bypass clears the set's
// reference bits, so entries that stop hitting become evictable and the
// set re-adapts.
//
// The returned schedule points into the cache and is only valid until the
// next Schedule call, which may overwrite it: use it before looking up the
// next tag.
//
//colibri:nomalloc
func (c *SchedCache) Schedule(tag uint64, epoch uint32, sigma *Key) *AESSchedule {
	i := (mix64(tag) & c.mask) * 2
	e0, e1 := &c.ents[i], &c.ents[i+1]
	// The ref stores are conditional so steady-state hits stay read-only
	// (an unconditional store dirties the cache line on every probe).
	if e0.valid && e0.tag == tag && e0.epoch == epoch {
		if !e0.ref {
			e0.ref = true
		}
		c.hits.Add(1)
		return &e0.ks
	}
	if e1.valid && e1.tag == tag && e1.epoch == epoch {
		if !e1.ref {
			e1.ref = true
		}
		c.hits.Add(1)
		return &e1.ks
	}
	c.misses.Add(1)
	// Victim: an empty way, else an unreferenced way. When both ways hold
	// recently-hit entries, bypass instead of evicting (second chance for
	// the residents, the caller's own expansion for the newcomer).
	var v *schedEntry
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
	v.tag, v.epoch, v.valid, v.ref = tag, epoch, true, true
	ExpandAES128(&v.ks, sigma)
	return &v.ks
}
