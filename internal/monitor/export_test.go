package monitor

import "colibri/internal/topology"

// Len returns the number of blocked ASes.
func (b *Blocklist) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.blocked)
}

// Each calls fn for every entry under the read lock, in map order (callers
// needing determinism must not depend on iteration order — merging is
// commutative). fn must not call back into the blocklist.
func (b *Blocklist) Each(fn func(ia topology.IA, expiry uint32)) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for ia, exp := range b.blocked {
		fn(ia, exp)
	}
}
