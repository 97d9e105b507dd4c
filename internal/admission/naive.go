package admission

import (
	"fmt"
	"math"
	"sync"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// NaiveState is the reference implementation of the same bounded-tube-
// fairness admission without memoization: every admission recomputes the
// ingress, tube, and per-source aggregates by iterating all existing
// reservations — O(n) per request. It exists to (a) cross-check the memoized
// State (FuzzAdmissionEquivalence) and (b) quantify, in the ablation
// benchmarks, the design choice that makes Fig. 3's constant-time admission possible
// ("this result required the careful application of memoization", §6.2).
//
// Iteration follows insertion order (the order slice), not map order, so the
// floating-point adjusted-demand sum is deterministic and differential fuzz
// failures reproduce.
type NaiveState struct {
	mu      sync.Mutex
	capIn   map[topology.IfID]float64
	capEg   map[topology.IfID]float64
	tubeCap map[tubeKey]float64
	entries map[reservation.ID]entry
	order   []reservation.ID // insertion order of live entries
	allocEg map[topology.IfID]uint64
}

// NewNaiveState mirrors NewState.
func NewNaiveState(as *topology.AS, split TrafficSplit) *NaiveState {
	st := &NaiveState{
		capIn:   make(map[topology.IfID]float64),
		capEg:   make(map[topology.IfID]float64),
		tubeCap: make(map[tubeKey]float64),
		entries: make(map[reservation.ID]entry),
		allocEg: make(map[topology.IfID]uint64),
	}
	for _, id := range as.SortedIfIDs() {
		c := float64(split.EERShare(as.Interfaces[id].CapacityKbps()))
		st.capIn[id] = c
		st.capEg[id] = c
	}
	st.capIn[0] = math.Inf(1)
	st.capEg[0] = math.Inf(1)
	return st
}

// SetTubeCapKbps overrides the capacity of one ingress→egress tube.
func (st *NaiveState) SetTubeCapKbps(in, eg topology.IfID, capKbps uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.tubeCap[tubeKey{in, eg}] = float64(capKbps)
}

// AdmitSegR recomputes all aggregates from scratch, then applies the same
// formulas as State.admitLocked.
func (st *NaiveState) AdmitSegR(req Request) (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.admitLocked(req)
}

func (st *NaiveState) admitLocked(req Request) (uint64, error) {
	if req.MaxKbps == 0 {
		return 0, ErrZeroDemand
	}
	if _, ok := st.entries[req.ID]; ok {
		return 0, fmt.Errorf("%w: %s", ErrDuplicate, req.ID)
	}
	capIn, ok := st.capIn[req.In]
	if !ok {
		return 0, fmt.Errorf("%w: ingress %d", ErrUnknownIf, req.In)
	}
	capEg, ok := st.capEg[req.Eg]
	if !ok {
		return 0, fmt.Errorf("%w: egress %d", ErrUnknownIf, req.Eg)
	}
	if tc, ok := st.tubeCap[tubeKey{req.In, req.Eg}]; ok && tc < capEg {
		capEg = tc
	}
	d := float64(req.MaxKbps)

	// The O(n) pass the memoized implementation avoids.
	var demIn, demTube, demSrc, adjEg float64
	for _, id := range st.order {
		e := st.entries[id]
		if e.req.In == req.In {
			demIn += float64(e.req.MaxKbps)
		}
		if e.req.In == req.In && e.req.Eg == req.Eg {
			demTube += float64(e.req.MaxKbps)
		}
		if e.req.Src == req.Src && e.req.Eg == req.Eg {
			demSrc += float64(e.req.MaxKbps)
		}
		if e.req.Eg == req.Eg {
			adjEg += e.adj
		}
	}

	fIn := scale(capIn, demIn+d)
	fTube := scale(capEg, fIn*(demTube+d))
	fSrc := scale(capEg, demSrc+d)
	adj := d * fIn * fTube * fSrc

	totalAdj := adjEg + adj
	share := 0.0
	if totalAdj > 0 {
		share = capEg * adj / totalAdj
	}
	free := capEg - float64(st.allocEg[req.Eg])
	if free < 0 {
		free = 0
	}
	g := uint64(math.Min(d, math.Min(share, free)))
	if g < req.MinKbps {
		return 0, fmt.Errorf("%w: computed %d kbps < minimum %d kbps", ErrBelowMinimum, g, req.MinKbps)
	}
	st.allocEg[req.Eg] += g
	st.entries[req.ID] = entry{req: req, adj: adj, grant: g}
	st.order = append(st.order, req.ID)
	return g, nil
}

// Release removes a reservation.
func (st *NaiveState) Release(id reservation.ID) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.releaseLocked(id)
}

func (st *NaiveState) releaseLocked(id reservation.ID) {
	e, ok := st.entries[id]
	if !ok {
		return
	}
	if st.allocEg[e.req.Eg] >= e.grant {
		st.allocEg[e.req.Eg] -= e.grant
	} else {
		st.allocEg[e.req.Eg] = 0
	}
	delete(st.entries, id)
	for i, oid := range st.order {
		if oid == id {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
}

// RenewSegR re-admits an existing reservation with fresh scale factors; on
// failure the old snapshot is restored.
func (st *NaiveState) RenewSegR(req Request) (uint64, error) {
	g, _, err := st.RenewSegRWithUndo(req)
	return g, err
}

// RenewSegRWithUndo is RenewSegR returning an undo closure that restores the
// pre-renewal snapshot. Restoration re-appends the entry, so its position in
// the naive iteration order moves to the end — the recomputed aggregates are
// the same set-sum either way.
func (st *NaiveState) RenewSegRWithUndo(req Request) (grant uint64, undo func(), err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	old, had := st.entries[req.ID]
	if had {
		st.releaseLocked(req.ID)
	}
	restore := func() {
		st.allocEg[old.req.Eg] += old.grant
		st.entries[old.req.ID] = old
		st.order = append(st.order, old.req.ID)
	}
	g, err := st.admitLocked(req)
	if err != nil {
		if had {
			restore()
		}
		return 0, nil, err
	}
	id := req.ID
	if !had {
		return g, func() {
			st.mu.Lock()
			defer st.mu.Unlock()
			st.releaseLocked(id)
		}, nil
	}
	return g, func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		st.releaseLocked(id)
		restore()
	}, nil
}

// AdjustGrant lowers a reservation's recorded grant to the final backward-
// pass value, freeing the difference at the egress.
func (st *NaiveState) AdjustGrant(id reservation.ID, finalKbps uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[id]
	if !ok {
		return fmt.Errorf("admission: unknown reservation %s", id)
	}
	if finalKbps > e.grant {
		return fmt.Errorf("admission: cannot raise grant of %s from %d to %d", id, e.grant, finalKbps)
	}
	st.allocEg[e.req.Eg] -= e.grant - finalKbps
	e.grant = finalKbps
	st.entries[id] = e
	return nil
}

// AllocatedKbps returns the total granted bandwidth at an egress.
func (st *NaiveState) AllocatedKbps(eg topology.IfID) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.allocEg[eg]
}

// GrantOf returns the recorded grant for a reservation (0 if unknown).
func (st *NaiveState) GrantOf(id reservation.ID) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.entries[id].grant
}

// Len returns the number of admitted reservations.
func (st *NaiveState) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}
