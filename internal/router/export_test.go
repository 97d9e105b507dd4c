package router

import (
	"colibri/internal/monitor"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// Watch places a reservation under deterministic monitoring on every shard
// (a multi-host reservation's flows may be pinned to several shards; the
// shared reserve keeps the aggregate at the exact reserved rate). On a shard
// its packets never reach, the seed has no lifetime and stays until Unwatch.
func (s *Sharded) Watch(id reservation.ID) {
	for _, sh := range s.shards {
		sh.r.Watch(id)
	}
}

// Unwatch clears a reservation from deterministic monitoring everywhere,
// which releases its shared reserve.
func (s *Sharded) Unwatch(id reservation.ID) {
	for _, sh := range s.shards {
		sh.r.Unwatch(id)
	}
}

// Block blocks a source AS on the global view and every shard immediately
// (operator action; shard-earned blocks propagate at Merge instead).
func (s *Sharded) Block(ia topology.IA, expiry uint32) {
	s.global.Block(ia, expiry)
	for _, sh := range s.shards {
		sh.r.Blocklist().Block(ia, expiry)
	}
}

// Blocklist returns the merged global blocklist view (complete as of the
// last Merge).
func (s *Sharded) Blocklist() *monitor.Blocklist { return s.global }

// Merge reconciles cross-shard state off the packet path: shard-earned
// blocklist entries are promoted to the global view and pushed back to all
// shards, and freshly flagged OFD suspects are drained, escalated to
// deterministic monitoring on every shard, and returned. Call it
// periodically (it is cheap when nothing changed) or whenever a fresh
// global view is needed. Merge never stalls the packet path: shards keep
// processing against their local state while it runs.
func (s *Sharded) Merge() []reservation.ID {
	// Blocklists: union up, then push down.
	for _, sh := range s.shards {
		s.global.MergeFrom(sh.r.Blocklist())
	}
	for _, sh := range s.shards {
		sh.r.Blocklist().MergeFrom(s.global)
	}

	// OFD promotion: a flow its shard's sketch flagged goes under deterministic
	// monitoring on all shards, for the lifetime that shard gave it.
	var flagged []reservation.ID
	for _, sh := range s.shards {
		for id, expT := range sh.r.detMon.Drain() {
			for _, sibling := range s.shards {
				sibling.r.detMon.Watch(id, expT)
			}
			flagged = append(flagged, id)
		}
	}
	return flagged
}

// Drops returns the per-reason drop counts across all shards.
func (s *Sharded) Drops() map[string]uint64 {
	if s.hasRegistry {
		// Shards share one registry, so the named counters are already
		// global; any shard's view is the total.
		return s.shards[0].r.Drops()
	}
	out := make(map[string]uint64)
	for _, sh := range s.shards {
		for reason, v := range sh.r.Drops() {
			out[reason] += v
		}
	}
	return out
}

// DropTotal returns the total dropped packets across shards.
func (s *Sharded) DropTotal() uint64 {
	if s.hasRegistry {
		return s.shards[0].r.DropTotal()
	}
	var sum uint64
	for _, sh := range s.shards {
		sum += sh.r.DropTotal()
	}
	return sum
}

// Unwatch ends a reservation's deterministic monitoring (a cleared false positive).
func (r *Router) Unwatch(id reservation.ID) { r.detMon.Forget(id) }

// DropTotal returns the total number of dropped packets across reasons.
func (r *Router) DropTotal() uint64 {
	var sum uint64
	for _, c := range r.drops {
		sum += c.Value()
	}
	return sum
}
