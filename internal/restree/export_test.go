package restree

// Teardown removes the key's charge; it reports whether the key was live.
func (l *Ledger[K]) Teardown(key K) bool {
	e, ok := l.entries[key]
	if !ok {
		return false
	}
	l.Discharge(e.startT, e.expT, e.bw)
	delete(l.entries, key)
	return true
}

// Get returns the live charge for a key.
func (l *Ledger[K]) Get(key K) (bw int64, ok bool) {
	e, ok := l.entries[key]
	return e.bw, ok
}

// Advance releases every reservation whose window ended at or before `now`
// and returns how many were released. The keys of lapsed charges are dropped
// in one pass over the entries, taken only when some charge lapsed.
func (l *Ledger[K]) Advance(now uint32) int {
	lapsed := l.Profile.Advance(now)
	if lapsed > 0 {
		// A window ending at or before the floor's first second has lapsed.
		floorT := uint64(l.floor) * uint64(l.epochSec)
		for k, e := range l.entries {
			if uint64(e.expT) <= floorT {
				delete(l.entries, k)
			}
		}
	}
	return lapsed
}

// DemandAt returns the aggregate demand at time t.
func (p *Profile) DemandAt(t uint32) int64 { return p.MaxDemand(t, t+1) }

// Snapshot iterates the demand profile over [fromT, toT) per epoch — the
// telemetry iterator.
func (p *Profile) Snapshot(fromT, toT uint32, f func(e Epoch, demand int64)) {
	start, end := p.EpochOf(fromT), p.epochCeil(toT)
	if end <= start {
		end = start + 1
	}
	for e := start; e < end; e++ {
		f(e, p.peak(e, e+1))
	}
}
