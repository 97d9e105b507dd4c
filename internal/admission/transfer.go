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
// All state is O(#up-SegRs per core-SegR), not O(#EERs).
type TransferSplit struct {
	mu sync.Mutex
	// demand[core][up] = Σ requested EER bandwidth (capped at the up-SegR's
	// own capacity at request time).
	demand map[reservation.ID]map[reservation.ID]uint64
	// total[core] = Σ over ups of demand.
	total map[reservation.ID]uint64
	// granted[core][up] = Σ granted.
	granted map[reservation.ID]map[reservation.ID]uint64
}

// NewTransferSplit builds an empty split state.
func NewTransferSplit() *TransferSplit {
	return &TransferSplit{
		demand:  make(map[reservation.ID]map[reservation.ID]uint64),
		total:   make(map[reservation.ID]uint64),
		granted: make(map[reservation.ID]map[reservation.ID]uint64),
	}
}

// Admit computes the grant for an EER request of reqKbps arriving over
// upSegR and leaving over coreSegR. upCapKbps and coreCapKbps are the
// respective active SegR bandwidths; coreAvailKbps is the remaining free EER
// bandwidth on the core SegR. The returned grant never exceeds any of the
// three, and under contention is capped at the up-SegR's proportional share
// of the core capacity.
func (t *TransferSplit) Admit(coreSegR, upSegR reservation.ID, reqKbps, upCapKbps, coreCapKbps, upAvailKbps, coreAvailKbps uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()

	capped := reqKbps
	if capped > upCapKbps {
		capped = upCapKbps
	}
	if t.demand[coreSegR] == nil {
		t.demand[coreSegR] = make(map[reservation.ID]uint64)
		t.granted[coreSegR] = make(map[reservation.ID]uint64)
	}
	t.demand[coreSegR][upSegR] += capped
	t.total[coreSegR] += capped

	grant := reqKbps
	if grant > upAvailKbps {
		grant = upAvailKbps
	}
	if grant > coreAvailKbps {
		grant = coreAvailKbps
	}
	// Under contention (total demand exceeds the core SegR), cap this
	// up-SegR at its proportional share of the core capacity.
	if tot := t.total[coreSegR]; tot > coreCapKbps {
		fair := coreCapKbps * t.demand[coreSegR][upSegR] / tot
		already := t.granted[coreSegR][upSegR]
		var room uint64
		if fair > already {
			room = fair - already
		}
		if grant > room {
			grant = room
		}
	}
	t.granted[coreSegR][upSegR] += grant
	return grant
}

// Release returns previously admitted demand/grant when an EER (or one of
// its versions) expires.
func (t *TransferSplit) Release(coreSegR, upSegR reservation.ID, demandKbps, grantKbps uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m := t.demand[coreSegR]; m != nil {
		m[upSegR] = subFloor(m[upSegR], demandKbps)
	}
	t.total[coreSegR] = subFloor(t.total[coreSegR], demandKbps)
	if m := t.granted[coreSegR]; m != nil {
		m[upSegR] = subFloor(m[upSegR], grantKbps)
	}
}

// Charge re-adds previously released demand/grant — the inverse of Release,
// for rollbacks that reinstate a version whose charge was already returned.
func (t *TransferSplit) Charge(coreSegR, upSegR reservation.ID, demandKbps, grantKbps uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.demand[coreSegR] == nil {
		t.demand[coreSegR] = make(map[reservation.ID]uint64)
		t.granted[coreSegR] = make(map[reservation.ID]uint64)
	}
	t.demand[coreSegR][upSegR] += demandKbps
	t.total[coreSegR] += demandKbps
	t.granted[coreSegR][upSegR] += grantKbps
}

// Books returns what the split holds for upSegR on coreSegR: the demand and
// the grants of the EERs through the pair. With every admission returned as its
// version went, they are what the live committed versions add up to.
func (t *TransferSplit) Books(coreSegR, upSegR reservation.ID) (demandKbps, grantedKbps uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.demand[coreSegR][upSegR], t.granted[coreSegR][upSegR]
}

// DropCore removes all state for an expired core SegR.
func (t *TransferSplit) DropCore(coreSegR reservation.ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.demand, coreSegR)
	delete(t.total, coreSegR)
	delete(t.granted, coreSegR)
}

func subFloor(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
