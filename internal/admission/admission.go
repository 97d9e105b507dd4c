// Package admission implements Colibri's admission algorithms (§4.7):
//
//   - Segment-reservation admission with bounded tube fairness: the capacity
//     of an egress interface is distributed among competing SegRs
//     proportionally to their *adjusted* demand, obtained by (1) limiting the
//     total demand from an ingress interface by that interface's capacity,
//     (2) limiting the demand between an ingress–egress pair by the egress
//     capacity, and (3) limiting the per-source demand at an egress by the
//     egress capacity. Step (1) is what yields botnet-size independence: no
//     matter how many sources an adversary controls, their total adjusted
//     demand is bounded by the physical ingress capacities their requests
//     arrive through.
//
//   - End-to-end-reservation admission at transfer ASes: proportional
//     distribution of a core-SegR's bandwidth among the up-SegRs competing
//     for it (SplitGrant, over books the caller keeps).
//
// All aggregates are memoized so one admission runs in O(1) time in the
// number of existing reservations — the property Fig. 3 of the paper
// demonstrates. Scale factors are snapshots taken at admission time and
// refreshed at each renewal; because SegRs are short-lived (~5 min) and
// renewals re-run admission, allocations converge to the fair shares within
// a few renewal cycles (§4.2).
package admission

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// TrafficSplit is the link-capacity split of §3.4.
type TrafficSplit struct {
	BestEffortPct uint8
	ControlPct    uint8
	EERPct        uint8
}

// DefaultSplit is the paper's 20 % / 5 % / 75 % split.
var DefaultSplit = TrafficSplit{BestEffortPct: 20, ControlPct: 5, EERPct: 75}

// EERShare returns the reservable share of a link capacity.
func (s TrafficSplit) EERShare(capKbps uint64) uint64 {
	return capKbps * uint64(s.EERPct) / 100
}

// Request is one SegR admission request as seen by an on-path AS.
type Request struct {
	ID  reservation.ID
	Src topology.IA
	// In, Eg are the local ingress/egress interfaces; 0 denotes the AS
	// itself (first or last hop of the segment).
	In, Eg topology.IfID
	// MinKbps is the smallest acceptable grant; MaxKbps the demand. A
	// reservation stays charged until it is released.
	MinKbps, MaxKbps uint64
}

// Admission errors.
var (
	ErrBelowMinimum = errors.New("admission: grant below requested minimum")
	ErrUnknownIf    = errors.New("admission: unknown interface")
	ErrZeroDemand   = errors.New("admission: zero demand")
	ErrDuplicate    = errors.New("admission: reservation already admitted")
)

type tubeKey struct{ in, eg topology.IfID }

type srcEgKey struct {
	src topology.IA
	eg  topology.IfID
}

// entry stores the admitted snapshot so Release can subtract exactly what
// Admit added.
type entry struct {
	req   Request
	adj   float64
	grant uint64
}

// State is one AS's SegR admission state. All methods are safe for
// concurrent use.
type State struct {
	mu sync.Mutex

	// capIn/capEg are reservable capacities per interface; interface 0
	// (the AS itself) maps to internal capacity or infinity.
	capIn, capEg map[topology.IfID]float64
	// tubeCap optionally overrides per-(in,eg) capacity (the "local traffic
	// matrix" of §4.7).
	tubeCap map[tubeKey]float64

	demIn   map[topology.IfID]float64 // Σ raw demand per ingress
	demTube map[tubeKey]float64       // Σ raw demand per (in,eg)
	demSrc  map[srcEgKey]float64      // Σ raw demand per (source, eg)
	adjEg   map[topology.IfID]float64 // Σ adjusted demand per egress
	allocEg map[topology.IfID]uint64  // Σ granted per egress

	entries map[reservation.ID]entry
}

// NewState builds admission state for the AS, deriving per-interface
// reservable capacities from the topology and traffic split.
func NewState(as *topology.AS, split TrafficSplit) *State {
	st := &State{
		capIn:   make(map[topology.IfID]float64, len(as.Interfaces)+1),
		capEg:   make(map[topology.IfID]float64, len(as.Interfaces)+1),
		tubeCap: make(map[tubeKey]float64),
		demIn:   make(map[topology.IfID]float64),
		demTube: make(map[tubeKey]float64),
		demSrc:  make(map[srcEgKey]float64),
		adjEg:   make(map[topology.IfID]float64),
		allocEg: make(map[topology.IfID]uint64),
		entries: make(map[reservation.ID]entry),
	}
	for _, id := range as.SortedIfIDs() {
		c := float64(split.EERShare(as.Interfaces[id].CapacityKbps()))
		st.capIn[id] = c
		st.capEg[id] = c
	}
	internal := math.Inf(1)
	if as.InternalCapacityKbps > 0 {
		internal = float64(split.EERShare(as.InternalCapacityKbps))
	}
	st.capIn[0] = internal
	st.capEg[0] = internal
	return st
}

// SetTubeCapKbps overrides the capacity of one ingress→egress tube.
//
//colibri:allow(testonly) — cserv's TestAutoRenewZeroGrantKeepsOldVersion caps a tube in every shard's admitter
func (st *State) SetTubeCapKbps(in, eg topology.IfID, capKbps uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.tubeCap[tubeKey{in, eg}] = float64(capKbps)
}

// AdmitSegR runs the bounded-tube-fairness admission for one request and, if
// the computed grant meets the requested minimum, records the reservation
// and returns the granted bandwidth.
func (st *State) AdmitSegR(req Request) (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.admitLocked(req)
}

func (st *State) admitLocked(req Request) (uint64, error) {
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
	tk := tubeKey{req.In, req.Eg}
	sk := srcEgKey{req.Src, req.Eg}

	// Step 1: ingress cap. The scale factor uses the ingress total
	// including this demand.
	fIn := scale(capIn, st.demIn[req.In]+d)
	// Step 2: tube cap at the egress.
	fTube := scale(capEg, fIn*(st.demTube[tk]+d))
	// Step 3: per-source cap at the egress.
	fSrc := scale(capEg, st.demSrc[sk]+d)

	adj := d * fIn * fTube * fSrc

	// Proportional share of the egress capacity. totalAdj can be zero when
	// the tube has zero capacity (adj scales to 0) and no other demand is
	// present; 0/0 would make share NaN and the min() chain below would
	// pass NaN through uint64 conversion as a huge grant.
	totalAdj := st.adjEg[req.Eg] + adj
	share := 0.0
	if totalAdj > 0 {
		share = capEg * adj / totalAdj
	}
	free := capEg - float64(st.allocEg[req.Eg])
	if free < 0 {
		free = 0
	}
	grant := math.Min(d, math.Min(share, free))
	g := uint64(grant)
	if g < req.MinKbps {
		return 0, fmt.Errorf("%w: computed %d kbps < minimum %d kbps",
			ErrBelowMinimum, g, req.MinKbps)
	}
	// A zero grant with MinKbps == 0 is admitted deliberately: the
	// reservation's adjusted demand enters the aggregates, so incumbents
	// shrink toward fair shares at their next renewal and this
	// reservation's own renewal picks up the freed bandwidth (§4.2).

	st.add(entry{req: req, adj: adj, grant: g})
	return g, nil
}

// add enters snapshot e into the aggregates.
func (st *State) add(e entry) {
	d := float64(e.req.MaxKbps)
	st.demIn[e.req.In] += d
	st.demTube[tubeKey{e.req.In, e.req.Eg}] += d
	st.demSrc[srcEgKey{e.req.Src, e.req.Eg}] += d
	st.adjEg[e.req.Eg] += e.adj
	st.allocEg[e.req.Eg] += e.grant
	st.entries[e.req.ID] = e
}

// scale returns min(1, cap/total); an infinite cap yields 1.
func scale(capacity, total float64) float64 {
	if total <= capacity || math.IsInf(capacity, 1) {
		return 1
	}
	return capacity / total
}

// Release removes an admitted reservation, subtracting exactly its admitted
// snapshot from all aggregates. Releasing an unknown ID is a no-op.
func (st *State) Release(id reservation.ID) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.releaseLocked(id)
}

func (st *State) releaseLocked(id reservation.ID) {
	e, ok := st.entries[id]
	if !ok {
		return
	}
	d := float64(e.req.MaxKbps)
	tk := tubeKey{e.req.In, e.req.Eg}
	sk := srcEgKey{e.req.Src, e.req.Eg}
	st.demIn[e.req.In] = clampNonNeg(st.demIn[e.req.In] - d)
	st.demTube[tk] = clampNonNeg(st.demTube[tk] - d)
	st.demSrc[sk] = clampNonNeg(st.demSrc[sk] - d)
	st.adjEg[e.req.Eg] = clampNonNeg(st.adjEg[e.req.Eg] - e.adj)
	if st.allocEg[e.req.Eg] >= e.grant {
		st.allocEg[e.req.Eg] -= e.grant
	} else {
		st.allocEg[e.req.Eg] = 0
	}
	delete(st.entries, id)
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Prior is the admitted snapshot a renewal replaced, none when the
// reservation had none: what UndoRenewal puts back.
type Prior struct {
	e   entry
	had bool
}

// Renew re-admits a reservation with fresh scale factors (and possibly a new
// demand), releasing its snapshot first, and returns the grant and the
// snapshot it replaced. On failure that snapshot is restored, so a failed
// renewal never destroys an active reservation.
func (st *State) Renew(req Request) (uint64, Prior, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var p Prior
	p.e, p.had = st.entries[req.ID]
	st.releaseLocked(req.ID)
	g, err := st.admitLocked(req)
	if err != nil && p.had {
		st.add(p.e)
	}
	return g, p, err
}

// UndoRenewal takes back a renewal of id that returned p, when a downstream AS
// refused it (§3.3's temporary-reservation cleanup): the snapshot it replaced
// comes back exactly.
func (st *State) UndoRenewal(id reservation.ID, p Prior) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.releaseLocked(id)
	if p.had {
		st.add(p.e)
	}
}

// AdjustGrant lowers a reservation's recorded grant to the final value
// agreed on the backward pass of a setup (the path-wide minimum), freeing
// the difference at the egress. Raising above the admitted grant is refused.
func (st *State) AdjustGrant(id reservation.ID, finalKbps uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[id]
	if !ok {
		return fmt.Errorf("admission: unknown reservation %s", id)
	}
	if finalKbps > e.grant {
		return fmt.Errorf("admission: cannot raise grant of %s from %d to %d",
			id, e.grant, finalKbps)
	}
	st.allocEg[e.req.Eg] -= e.grant - finalKbps
	e.grant = finalKbps
	st.entries[id] = e
	return nil
}

// AllocatedKbps returns the total granted bandwidth at an egress.
func (st *State) AllocatedKbps(eg topology.IfID) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.allocEg[eg]
}

// Len returns the number of admitted reservations.
//
//colibri:allow(testonly) — workload's TestTransitAS counts the SegRs it admits
func (st *State) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

// SplitGrant is the transfer-AS EER admission rule of §4.7: "the transfer AS
// between up- and core-SegR needs to distribute the core-SegR's bandwidth
// between all up-SegRs in case more EER bandwidth is requested than available
// in the core-SegR. This is done proportionally to the total of all requested
// EERs (capped at the up-SegR) that compete for the same core-SegR."
//
// It grants a request of reqKbps through one (core-SegR, up-SegR) pair at most
// availKbps, the EER bandwidth free on both SegRs, and while the core's total
// demand exceeds its bandwidth coreCapKbps, at most the pair's share
// coreCapKbps·pairDemand/totalDemand less pairGranted, what the pair holds.
// Both demands count the request's own, capped at the up-SegR's bandwidth.
//
//colibri:nomalloc
func SplitGrant(reqKbps, availKbps, coreCapKbps, pairDemand, totalDemand, pairGranted uint64) uint64 {
	grant := min(reqKbps, availKbps)
	if totalDemand > coreCapKbps {
		var room uint64
		if fair := coreCapKbps * pairDemand / totalDemand; fair > pairGranted {
			room = fair - pairGranted
		}
		grant = min(grant, room)
	}
	return grant
}
