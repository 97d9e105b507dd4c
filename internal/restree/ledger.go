package restree

import "errors"

// Ledger errors. Sentinels (no fmt wrapping) keep the steady-state path
// allocation-free.
var (
	// ErrExists is returned by Reserve for a key that already holds a
	// reservation.
	ErrExists = errors.New("restree: reservation already exists")
	// ErrUnknown is returned by Renew for a key with no live reservation.
	ErrUnknown = errors.New("restree: unknown reservation")
)

// lentry is one live reservation: the window and bandwidth it was charged
// with, which is what withdraws it.
type lentry struct {
	startT, expT uint32
	bw           int64
}

// Ledger is a Profile for callers that hold a key and no record of their own:
// it remembers each key's charge and hands it back to the profile on Renew and
// Teardown. MaxDemand, DemandAt, Snapshot and Len are the profile's. Not safe
// for concurrent use.
type Ledger[K comparable] struct {
	Profile
	entries map[K]lentry
}

// NewLedger builds a ledger over a ring of at least `epochs` epochs, each
// epochSeconds wide (minimum 1).
func NewLedger[K comparable](epochs int, epochSeconds uint32) *Ledger[K] {
	return &Ledger[K]{Profile: *NewProfile(epochs, epochSeconds), entries: make(map[K]lentry)}
}

// Reserve charges bw over the window [startT, expT) under the given key.
//
//colibri:nomalloc
func (l *Ledger[K]) Reserve(key K, startT, expT uint32, bw int64) error {
	if _, ok := l.entries[key]; ok {
		return ErrExists
	}
	if err := l.Charge(startT, expT, bw); err != nil {
		return err
	}
	l.entries[key] = lentry{startT: startT, expT: expT, bw: bw}
	return nil
}

// Renew replaces the key's charge with a new window and bandwidth — the
// seamless transition of §4.2: the old version is truncated at the moment the
// renewal takes over, so overlapping versions are never double-charged. A
// refused window leaves the old charge in place.
//
//colibri:nomalloc
func (l *Ledger[K]) Renew(key K, startT, expT uint32, bw int64) error {
	e, ok := l.entries[key]
	if !ok {
		return ErrUnknown
	}
	l.Discharge(e.startT, e.expT, e.bw)
	if err := l.Charge(startT, expT, bw); err != nil {
		_ = l.Charge(e.startT, e.expT, e.bw) // what was just withdrawn fits
		return err
	}
	l.entries[key] = lentry{startT: startT, expT: expT, bw: bw}
	return nil
}

// Teardown removes the key's charge; it reports whether the key was live.
//
//colibri:nomalloc
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
