// Package restree keeps the EER demand of a segment reservation over time —
// the time-based bandwidth-reservation problem of Brodnik & Nilsson ("A Data
// Structure for a Time-Based Bandwidth Reservations Problem"), adapted to
// Colibri's control plane: add a bandwidth demand over an interval of time,
// and ask for the peak aggregate demand over another, which is the admission
// question of a hop.
//
// Time is discretized into fixed-width epochs, and the demand lives in a flat
// ring of per-epoch sums: absolute epoch e is slot e mod n, so the ring holds
// any sliding window of n consecutive epochs. An add touches the slots of its
// interval and a peak query reads them; nothing else is kept. Brodnik and
// Nilsson answer the same two operations in O(log n) with a segment tree,
// which pays off when intervals are long. Here no interval can be: a charge
// must end inside the ring, so every add and every query spans at most n
// epochs — 128 contiguous int64s (1 KiB) at the CServ's default ring in the
// worst case, and 4–5 for an EER's 16 s at 4 s epochs, where the tree's
// log-depth climbs cost more than the slots themselves.
//
// Profile is the demand ledger under every SegR: keyless, its charges held by
// their owners' records. Ledger adds a key map on top for callers that keep no
// record of their own.
package restree

import "errors"

// Epoch is an absolute, non-negative epoch number (time divided by the epoch
// width). Intervals are half-open: [start, end).
type Epoch int64

// ErrWindow is returned when a charge's window is empty, longer than the
// ring, wholly behind the profile's floor, or ends beyond the ring (floor +
// horizon). A sentinel
// (no fmt wrapping) keeps the steady-state path allocation-free.
var ErrWindow = errors.New("restree: invalid reservation window")

// Profile is a keyless, time-bounded demand profile over one ring of
// per-epoch sums: the aggregate of charges (window, bandwidth) whose owner
// remembers them. A charge is withdrawn by naming the same window and
// bandwidth again (Discharge) or lapses by itself as Advance moves the floor
// past it, so the profile holds no per-charge state at all — the caller's own
// record of a reservation is the only handle on it.
//
// The ring represents the epochs [floor, floor+Epochs()). Advance zeroes every
// slot it recycles, Charge and Discharge clamp to the part of a window at or
// ahead of the floor, and MaxDemand reads nothing outside the ring; hence a
// slot is always the sum of the live charges covering its epoch, whatever was
// or was not discharged behind the floor. The floor is set by the first
// Advance, or by the first Charge of a profile that was never advanced.
// Not safe for concurrent use.
type Profile struct {
	// slots[e mod n] is the demand at epoch e, for e in [floor, floor+n).
	slots    []int64
	mask     int // n-1, n a power of two
	epochSec uint32
	floor    Epoch // -1 until anchored
	// ends[e mod n] counts the live charges ending at epoch e, for e in
	// (floor, floor+n] — n distinct slots; live is their sum.
	ends []int32
	live int
}

// NewProfile builds a profile over a ring of at least `epochs` epochs
// (rounded up to a power of two, minimum 2), each epochSeconds wide (minimum
// 1).
func NewProfile(epochs int, epochSeconds uint32) *Profile {
	if epochSeconds == 0 {
		epochSeconds = 1
	}
	n := 2
	for n < epochs {
		n <<= 1
	}
	return &Profile{slots: make([]int64, n), mask: n - 1, epochSec: epochSeconds, floor: -1, ends: make([]int32, n)}
}

// EpochOf returns the epoch containing time t (Unix seconds).
func (p *Profile) EpochOf(t uint32) Epoch { return Epoch(t / p.epochSec) }

// epochCeil rounds t up to an epoch boundary, so a reservation stays charged
// until the whole epoch containing its expiry has passed (conservative
// discretization: demand is never under-counted).
func (p *Profile) epochCeil(t uint32) Epoch {
	return Epoch((uint64(t) + uint64(p.epochSec) - 1) / uint64(p.epochSec))
}

// window returns the slots of the epochs [start, end), a non-empty span of at
// most the ring: one run of the ring, or two when the span wraps its end.
//
//colibri:nomalloc
func (p *Profile) window(start, end Epoch) (a, b []int64) {
	i := int(start) & p.mask
	j := i + int(end-start)
	if j <= len(p.slots) {
		return p.slots[i:j], nil
	}
	return p.slots[i:], p.slots[:j-len(p.slots)]
}

// add adds d to every epoch of [start, end).
//
//colibri:nomalloc
func (p *Profile) add(start, end Epoch, d int64) {
	a, b := p.window(start, end)
	for i := range a {
		a[i] += d
	}
	for i := range b {
		b[i] += d
	}
}

// Charge adds bw over the window [startT, expT). The window may start in the
// future, but it must be no longer than the ring and end inside it: a slot
// past floor+Epochs() is a live one seen again.
//
//colibri:nomalloc
func (p *Profile) Charge(startT, expT uint32, bw int64) error {
	first, end := p.EpochOf(startT), p.epochCeil(expT)
	floor := p.floor
	if floor < 0 {
		floor = first
	}
	start, n := max(first, floor), Epoch(len(p.slots))
	if end <= start || end-first > n || end > floor+n {
		return ErrWindow
	}
	p.floor = floor
	p.add(start, end, bw)
	p.ends[int(end)&p.mask]++
	p.live++
	return nil
}

// Discharge withdraws a charge made with the same window and bandwidth: the
// part of it still ahead of the floor (Advance has zeroed the rest), and
// nothing once the floor has reached its end.
//
//colibri:nomalloc
func (p *Profile) Discharge(startT, expT uint32, bw int64) {
	start, end := max(p.EpochOf(startT), p.floor), p.epochCeil(expT)
	if end <= start {
		return
	}
	p.add(start, end, -bw)
	p.ends[int(end)&p.mask]--
	p.live--
}

// MaxDemand returns the maximum aggregate demand over the window
// [fromT, toT) — the admission query. Epochs outside the ring carry none.
//
//colibri:nomalloc
func (p *Profile) MaxDemand(fromT, toT uint32) int64 {
	start, end := p.EpochOf(fromT), p.epochCeil(toT)
	if end <= start {
		end = start + 1
	}
	return p.peak(start, end)
}

// peak is the maximum over the part of [start, end) inside the ring.
//
//colibri:nomalloc
func (p *Profile) peak(start, end Epoch) int64 {
	start, end = max(start, p.floor), min(end, p.floor+Epoch(len(p.slots)))
	if p.floor < 0 || end <= start {
		return 0
	}
	a, b := p.window(start, end)
	m := a[0]
	for _, d := range a[1:] {
		m = max(m, d)
	}
	for _, d := range b {
		m = max(m, d)
	}
	return m
}

// Advance moves the floor to the epoch containing `now` — never backwards —
// zeroing the slots it recycles, and returns how many charges lapsed: one
// charged over [start, end) lapses once the epoch containing `now` has
// reached end.
//
//colibri:nomalloc
func (p *Profile) Advance(now uint32) int {
	cur := p.EpochOf(now)
	if cur <= p.floor {
		return 0
	}
	if p.floor < 0 {
		p.floor = cur
		return 0
	}
	lapsed := 0
	if cur-p.floor >= Epoch(len(p.slots)) {
		lapsed = p.live
		clear(p.slots)
		clear(p.ends)
	} else {
		for e := p.floor; e < cur; e++ {
			p.slots[int(e)&p.mask] = 0
			i := int(e+1) & p.mask
			lapsed += int(p.ends[i])
			p.ends[i] = 0
		}
	}
	p.live -= lapsed
	p.floor = cur
	return lapsed
}

// Len returns the number of live charges.
func (p *Profile) Len() int { return p.live }
