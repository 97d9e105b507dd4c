package admission

import (
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// RenewSegR re-admits an existing reservation with fresh scale factors (and
// possibly a new demand), releasing the old snapshot first. On failure the
// old snapshot is restored, so a failed renewal never destroys an active
// reservation.
func (st *State) RenewSegR(req Request) (uint64, error) {
	g, _, err := st.Renew(req)
	return g, err
}

// GrantOf returns the recorded grant for a reservation (0 if unknown).
func (st *State) GrantOf(id reservation.ID) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.entries[id].grant
}

// SetTubeCapKbps overrides the capacity of one ingress→egress tube.
func (st *NaiveState) SetTubeCapKbps(in, eg topology.IfID, capKbps uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.tubeCap[tubeKey{in, eg}] = float64(capKbps)
}

// RenewSegR re-admits an existing reservation with fresh scale factors; on
// failure the old snapshot is restored.
func (st *NaiveState) RenewSegR(req Request) (uint64, error) {
	g, _, err := st.RenewSegRWithUndo(req)
	return g, err
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
