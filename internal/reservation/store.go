package reservation

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"colibri/internal/topology"
)

// Store is one AS's database of segment reservations: their protocol state
// (versions, tokens, idempotency keys). It is safe for concurrent use. In the
// paper this is "a transactional database" inside the CServ; here the setup
// flow's reserve-then-confirm/rollback discipline is provided by the SegR
// lifecycle methods. The bandwidth accounting — SegR admission and the EER
// demand over each SegR — is the control-plane engine's (cserv.CPlane).
type Store struct {
	mu     sync.RWMutex
	local  topology.IA
	segs   map[ID]*SegR
	nextID uint32
}

// Store errors.
var (
	ErrNotFound  = errors.New("reservation: not found")
	ErrExists    = errors.New("reservation: already exists")
	ErrNoPending = errors.New("reservation: no pending version")
)

// NewStore builds an empty store for the given AS.
func NewStore(local topology.IA) *Store {
	return &Store{local: local, segs: make(map[ID]*SegR)}
}

// NextID allocates the next reservation number for locally initiated
// reservations; the resulting (SrcAS, Num) pair is globally unique.
func (s *Store) NextID() ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return ID{SrcAS: s.local, Num: s.nextID}
}

// AddSegR inserts a new segment reservation record.
func (s *Store) AddSegR(r *SegR) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.segs[r.ID]; ok {
		return fmt.Errorf("%w: SegR %s", ErrExists, r.ID)
	}
	s.segs[r.ID] = r
	return nil
}

// GetSegR returns the segment reservation, or ErrNotFound.
func (s *Store) GetSegR(id ID) (*SegR, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.segs[id]
	if !ok {
		return nil, fmt.Errorf("%w: SegR %s", ErrNotFound, id)
	}
	return r, nil
}

// DeleteSegR removes a segment reservation (failure cleanup on the setup
// path, or expiry).
func (s *Store) DeleteSegR(id ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.segs, id)
}

// ConfirmSegR finalizes the granted bandwidth of the active version after
// the backward pass of a setup ("each AS locally stores the final amount of
// bandwidth granted", §3.3).
func (s *Store) ConfirmSegR(id ID, finalKbps uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.segs[id]
	if !ok {
		return fmt.Errorf("%w: SegR %s", ErrNotFound, id)
	}
	r.Active.BwKbps = finalKbps
	return nil
}

// SetPending records a renewed version awaiting activation (§4.2: "only a
// single version of a SegR can exist at any time and a pending version …
// must be activated explicitly").
func (s *Store) SetPending(id ID, v Version) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.segs[id]
	if !ok {
		return fmt.Errorf("%w: SegR %s", ErrNotFound, id)
	}
	r.Pending = &v
	return nil
}

// ClearPending discards a pending version that will never be activated
// (e.g. a renewal that was ultimately refused or granted zero bandwidth),
// so the SegR becomes due for renewal again instead of being stuck behind
// a dead pending version.
func (s *Store) ClearPending(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.segs[id]
	if !ok {
		return fmt.Errorf("%w: SegR %s", ErrNotFound, id)
	}
	r.Pending = nil
	return nil
}

// ActivatePending switches the SegR to its pending version. The caller has
// checked that the EER bandwidth admitted over the SegR fits the new version
// ("ensure that no over-allocation with EERs can occur": the demand lives in
// the engine's ledger, CPlane.SegDemandMax).
func (s *Store) ActivatePending(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.segs[id]
	if !ok {
		return fmt.Errorf("%w: SegR %s", ErrNotFound, id)
	}
	if r.Pending == nil {
		return fmt.Errorf("%w: SegR %s", ErrNoPending, id)
	}
	r.Active = *r.Pending
	r.Pending = nil
	return nil
}

// Cleanup removes the SegRs whose active and pending versions are both
// expired. It returns their IDs so the caller can release the admission
// state held for them.
func (s *Store) Cleanup(now uint32) (removedSegRs []ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range sortedIDs(s.segs) {
		r := s.segs[id]
		activeDead := r.Active.Expired(now)
		pendingDead := r.Pending == nil || r.Pending.Expired(now)
		if activeDead && !pendingDead {
			// An expired active with a live pending: switch over (the
			// initiator failed to activate in time; keep service alive).
			r.Active = *r.Pending
			r.Pending = nil
			continue
		}
		if activeDead && pendingDead {
			delete(s.segs, id)
			removedSegRs = append(removedSegRs, id)
		}
	}
	return removedSegRs
}

// InitiatedSegRs returns the SegRs initiated by this AS (those carrying the
// full segment), for the renewal automation of §3.2.
func (s *Store) InitiatedSegRs() []*SegR {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*SegR
	for _, id := range sortedIDs(s.segs) {
		if r := s.segs[id]; r.Seg != nil {
			out = append(out, r)
		}
	}
	return out
}

// sortedIDs returns the map's keys in canonical ID order, so maintenance
// paths (cleanup, renewal enumeration) touch reservations — and emit any
// downstream traces — in the same order every run.
func sortedIDs[V any](m map[ID]V) []ID {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// Len returns the number of stored SegRs.
//
//colibri:allow(testonly) — core's TestInternetScaleScenario and cserv's service and feature tests count the SegRs a store holds
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.segs)
}
