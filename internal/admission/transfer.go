package admission

import (
	"sync"

	"colibri/internal/reservation"
)

// TransferSplit implements the transfer-AS EER admission rule of §4.7: "the
// transfer AS between up- and core-SegR needs to distribute the core-SegR's
// bandwidth between all up-SegRs in case more EER bandwidth is requested
// than available in the core-SegR. This is done proportionally to the total
// of all requested EERs (capped at the up-SegR) that compete for the same
// core-SegR."
//
// The split tracks, per core-SegR, the demand arriving from each up-SegR and
// grants each up-SegR at most its proportional share of the core capacity.
// The books of one (core-SegR, up-SegR) pair are reached through a handle,
// PairBooks, that a caller resolves once (Pair) and then admits, releases and
// charges through without a lookup. All state is O(#pairs), not O(#EERs).
type TransferSplit struct {
	mu    sync.Mutex // guards cores and every core's ups
	cores map[reservation.ID]*coreBooks
}

// coreBooks is what the split keeps per core-SegR: the demand of every
// up-SegR over it, and the pairs that make it up.
type coreBooks struct {
	// mu guards total and the books of every pair of the core: one pair's
	// admission reads the demand of all of them.
	mu    sync.Mutex
	total uint64 // Σ demand over the live pairs
	ups   map[reservation.ID]*PairBooks
}

// PairBooks is the split's books for one (core-SegR, up-SegR) pair, and the
// handle its admissions go through. Its methods are safe for concurrent use.
type PairBooks struct {
	core *coreBooks
	// demand is Σ requested EER bandwidth through the pair, each request
	// capped at the up-SegR's own capacity; granted is Σ granted.
	demand, granted uint64
	// gone marks a pair the split forgot with its up-SegR (DropSegR) while a
	// caller still held it: what goes through it no longer counts in its
	// core's total.
	gone bool
}

// NewTransferSplit builds an empty split state.
func NewTransferSplit() *TransferSplit {
	return &TransferSplit{cores: make(map[reservation.ID]*coreBooks)}
}

// Pair returns the handle on the books of the pair (coreSegR, upSegR),
// creating empty books for a pair the split has not seen.
func (t *TransferSplit) Pair(coreSegR, upSegR reservation.ID) *PairBooks {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cores[coreSegR]
	if c == nil {
		c = &coreBooks{ups: make(map[reservation.ID]*PairBooks)}
		t.cores[coreSegR] = c
	}
	p := c.ups[upSegR]
	if p == nil {
		p = &PairBooks{core: c}
		c.ups[upSegR] = p
	}
	return p
}

// Lookup returns the handle on the pair's books, or nil when the split has
// none: no admission ever went through the pair, or the split forgot it.
func (t *TransferSplit) Lookup(coreSegR, upSegR reservation.ID) *PairBooks {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.cores[coreSegR]; c != nil {
		return c.ups[upSegR]
	}
	return nil
}

// DropSegR forgets every pair of a SegR that is gone, on whichever side of the
// pair it was: a core-SegR's books whole, and an up-SegR's pair on every core,
// its demand leaving the core's total with it — otherwise the dead demand
// shrinks every other up-SegR's fair share for good. A handle on a forgotten
// pair stays usable and counts for nothing: its books, or its core's when the
// core went, are no longer the split's.
func (t *TransferSplit) DropSegR(id reservation.ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.cores, id)
	// Each core loses at most its own pair with id, so the order does not
	// matter.
	//colibri:allow(determinism)
	for _, c := range t.cores {
		if p := c.ups[id]; p != nil {
			delete(c.ups, id)
			c.mu.Lock()
			c.total = subFloor(c.total, p.demand)
			p.gone = true
			c.mu.Unlock()
		}
	}
}

// Admit computes the grant for an EER request of reqKbps through the pair.
// upCapKbps and coreCapKbps are the respective active SegR bandwidths;
// upAvailKbps and coreAvailKbps the remaining free EER bandwidth on the up-
// and core-SegR. The returned grant never exceeds any of the three, and under
// contention is capped at the up-SegR's proportional share of the core
// capacity.
//
//colibri:nomalloc
func (p *PairBooks) Admit(reqKbps, upCapKbps, coreCapKbps, upAvailKbps, coreAvailKbps uint64) uint64 {
	c := p.core
	c.mu.Lock()
	defer c.mu.Unlock()

	capped := min(reqKbps, upCapKbps)
	p.demand += capped
	if !p.gone {
		c.total += capped
	}
	grant := min(reqKbps, upAvailKbps, coreAvailKbps)
	// Under contention (total demand exceeds the core SegR), cap this
	// up-SegR at its proportional share of the core capacity.
	if tot := c.total; tot > coreCapKbps {
		fair := coreCapKbps * p.demand / tot
		var room uint64
		if fair > p.granted {
			room = fair - p.granted
		}
		grant = min(grant, room)
	}
	p.granted += grant
	return grant
}

// Release returns previously admitted demand/grant when an EER (or one of
// its versions) expires.
//
//colibri:nomalloc
func (p *PairBooks) Release(demandKbps, grantKbps uint64) {
	c := p.core
	c.mu.Lock()
	p.demand = subFloor(p.demand, demandKbps)
	if !p.gone {
		c.total = subFloor(c.total, demandKbps)
	}
	p.granted = subFloor(p.granted, grantKbps)
	c.mu.Unlock()
}

// Charge re-adds previously released demand/grant — the inverse of Release,
// for rollbacks that reinstate a version whose charge was already returned.
//
//colibri:nomalloc
func (p *PairBooks) Charge(demandKbps, grantKbps uint64) {
	c := p.core
	c.mu.Lock()
	p.demand += demandKbps
	if !p.gone {
		c.total += demandKbps
	}
	p.granted += grantKbps
	c.mu.Unlock()
}

// Books returns what the pair holds: the demand and the grants of the EERs
// through it. With every admission returned as its version went, they are what
// the live committed versions add up to.
func (p *PairBooks) Books() (demandKbps, grantedKbps uint64) {
	c := p.core
	c.mu.Lock()
	defer c.mu.Unlock()
	return p.demand, p.granted
}

func subFloor(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
