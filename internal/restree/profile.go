package restree

import "errors"

// ErrWindow is returned when a charge's window is empty, longer than the
// ring, wholly behind the profile's floor, or ends beyond the ring (floor +
// horizon). A sentinel
// (no fmt wrapping) keeps the steady-state path allocation-free.
var ErrWindow = errors.New("restree: invalid reservation window")

// Profile is a keyless, time-bounded demand profile over one Tree: the
// aggregate of charges (window, bandwidth) whose owner remembers them. A
// charge is withdrawn by naming the same window and bandwidth again
// (Discharge) or lapses by itself as Advance moves the floor past it, so the
// profile holds no per-charge state at all — the caller's own record of a
// reservation is the only handle on it.
//
// The ring represents the epochs [floor, floor+Epochs()). Advance zeroes every
// slot it recycles, Charge and Discharge clamp to the part of a window at or
// ahead of the floor, and MaxDemand reads nothing outside the ring; hence a
// slot is always the sum of the live charges covering its epoch, whatever was
// or was not discharged behind the floor. The floor is set by the first
// Advance, or by the first Charge of a profile that was never advanced.
// Not safe for concurrent use.
type Profile struct {
	tree     Tree
	epochSec uint32
	floor    Epoch // -1 until anchored
	// ends[e mod n] counts the live charges ending at epoch e, for e in
	// (floor, floor+n] — n distinct slots; live is their sum.
	ends []int32
	live int
}

// NewProfile builds a profile over a ring of at least `epochs` epochs, each
// epochSeconds wide (minimum 1).
func NewProfile(epochs int, epochSeconds uint32) *Profile {
	if epochSeconds == 0 {
		epochSeconds = 1
	}
	p := &Profile{tree: *NewTree(epochs), epochSec: epochSeconds, floor: -1}
	p.ends = make([]int32, p.tree.n)
	return p
}

// EpochOf returns the epoch containing time t (Unix seconds).
func (p *Profile) EpochOf(t uint32) Epoch { return Epoch(t / p.epochSec) }

// epochCeil rounds t up to an epoch boundary, so a reservation stays charged
// until the whole epoch containing its expiry has passed (conservative
// discretization: demand is never under-counted).
func (p *Profile) epochCeil(t uint32) Epoch {
	return Epoch((uint64(t) + uint64(p.epochSec) - 1) / uint64(p.epochSec))
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
	start, n := max(first, floor), Epoch(p.tree.n)
	if end <= start || end-first > n || end > floor+n {
		return ErrWindow
	}
	p.floor = floor
	p.tree.Add(start, end, bw)
	p.ends[int(end)&(p.tree.n-1)]++
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
	p.tree.Add(start, end, -bw)
	p.ends[int(end)&(p.tree.n-1)]--
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
func (p *Profile) peak(start, end Epoch) int64 {
	start, end = max(start, p.floor), min(end, p.floor+Epoch(p.tree.n))
	if p.floor < 0 || end <= start {
		return 0
	}
	return p.tree.Max(start, end)
}

// DemandAt returns the aggregate demand at time t.
//
//colibri:nomalloc
func (p *Profile) DemandAt(t uint32) int64 { return p.MaxDemand(t, t+1) }

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
	if cur-p.floor >= Epoch(p.tree.n) {
		lapsed = p.live
		p.tree.Reset()
		clear(p.ends)
	} else {
		for e := p.floor; e < cur; e++ {
			if d := p.tree.At(e); d != 0 {
				p.tree.Add(e, e+1, -d)
			}
			i := int(e+1) & (p.tree.n - 1)
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
