package admission

import (
	"errors"
	"math"
	"sync"

	"colibri/internal/reservation"
	"colibri/internal/restree"
	"colibri/internal/topology"
)

// Restree admission errors.
var (
	// ErrWindow is returned for a timed request whose validity window is
	// empty or longer than the configured horizon.
	ErrWindow = errors.New("admission: reservation window outside restree horizon")
	// ErrRaiseGrant is returned by AdjustGrant when asked to raise a grant
	// above the admitted value.
	ErrRaiseGrant = errors.New("admission: cannot raise grant above admitted value")
)

// RestreeConfig parameterizes RestreeState.
type RestreeConfig struct {
	// EpochSeconds is the time-discretization granularity (default 4 s). A
	// timed reservation is charged from the epoch containing its start to
	// the epoch containing its expiry (rounded up), so demand is over-
	// counted by at most one epoch on either side — never under-counted.
	EpochSeconds uint32
	// HorizonEpochs is the ring size of each demand tree (default 256,
	// rounded up to a power of two). EpochSeconds*HorizonEpochs must cover
	// the longest reservation lifetime; the defaults cover SegR lifetimes
	// (300 s) more than 3×.
	HorizonEpochs int
	// Clock supplies control-plane time in Unix seconds. It drives the
	// automatic expiry of timed reservations and the default start of
	// requests with StartT == 0. A nil clock pins time at 0: timed
	// reservations then never auto-expire and must be released explicitly.
	Clock func() uint32
}

// rsEntry is the admitted snapshot, extended with the charged epoch window.
type rsEntry struct {
	req   Request
	adj   float64
	grant uint64
	// start/end are the charged epochs; timed reservations are also queued
	// on the expiry heap under seq.
	start, end restree.Epoch
	timed      bool
	seq        uint64
}

// rsExp is an expiry-heap element (lazy: see advanceLocked).
type rsExp struct {
	end restree.Epoch
	seq uint64
	id  reservation.ID
}

// RestreeState implements bounded-tube-fairness admission with segment-tree
// demand profiles over discretized time (package restree): the demIn, demTube
// and demSrc aggregates of the memoized State become range-max queries over
// the request's validity window, so admission is O(log n) in the horizon and
// — unlike the memoized implementation — expired reservations stop consuming
// bandwidth without an explicit release.
//
// Grant equivalence with *State: the three demand aggregates are sums of
// integer kbps values, which the trees keep exactly (int64) and which float64
// represents exactly below 2⁵³ — so for workloads where every live
// reservation covers the query window (untimed requests, or timed requests
// all starting "now"), the computed grants are bit-identical to the memoized
// implementation's. The adjusted-demand total adjEg is a sum of non-integer
// floats whose value depends on operation order; it stays a scalar updated in
// the same order as State's, preserving exactness. This is what
// FuzzAdmissionEquivalence locks in.
//
// All methods are safe for concurrent use.
type RestreeState struct {
	mu sync.Mutex

	epochSec uint32
	horizon  int
	clock    func() uint32

	capIn, capEg map[topology.IfID]float64
	tubeCap      map[tubeKey]float64

	demIn   map[topology.IfID]*restree.Tree // demand profile per ingress
	demTube map[tubeKey]*restree.Tree       // demand profile per (in,eg)
	demSrc  map[srcEgKey]*restree.Tree      // demand profile per (source,eg)
	adjEg   map[topology.IfID]float64       // Σ adjusted demand per egress
	allocEg map[topology.IfID]uint64        // Σ granted per egress

	entries map[reservation.ID]rsEntry
	seq     uint64
	heap    []rsExp // min-heap by (end, seq); lazy elements
}

// NewRestreeState builds restree-backed admission state for the AS,
// deriving per-interface reservable capacities exactly as NewState does.
func NewRestreeState(as *topology.AS, split TrafficSplit, cfg RestreeConfig) *RestreeState {
	if cfg.EpochSeconds == 0 {
		cfg.EpochSeconds = 4
	}
	if cfg.HorizonEpochs == 0 {
		cfg.HorizonEpochs = 256
	}
	clock := cfg.Clock
	if clock == nil {
		clock = func() uint32 { return 0 }
	}
	st := &RestreeState{
		epochSec: cfg.EpochSeconds,
		horizon:  cfg.HorizonEpochs,
		clock:    clock,
		capIn:    make(map[topology.IfID]float64, len(as.Interfaces)+1),
		capEg:    make(map[topology.IfID]float64, len(as.Interfaces)+1),
		tubeCap:  make(map[tubeKey]float64),
		demIn:    make(map[topology.IfID]*restree.Tree),
		demTube:  make(map[tubeKey]*restree.Tree),
		demSrc:   make(map[srcEgKey]*restree.Tree),
		adjEg:    make(map[topology.IfID]float64),
		allocEg:  make(map[topology.IfID]uint64),
		entries:  make(map[reservation.ID]rsEntry),
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
func (st *RestreeState) SetTubeCapKbps(in, eg topology.IfID, capKbps uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.tubeCap[tubeKey{in, eg}] = float64(capKbps)
}

// window maps a request to its charged epoch interval. Untimed requests
// (ExpT == 0) report timed == false and charge the whole ring.
func (st *RestreeState) window(req Request, now uint32) (start, end restree.Epoch, timed bool, err error) {
	if req.ExpT == 0 {
		return 0, 0, false, nil
	}
	sT := req.StartT
	if sT == 0 {
		sT = now
	}
	start = restree.Epoch(sT / st.epochSec)
	end = restree.Epoch((uint64(req.ExpT) + uint64(st.epochSec) - 1) / uint64(st.epochSec))
	if end <= start || int(end-start) > st.horizon {
		return 0, 0, true, ErrWindow
	}
	return start, end, true, nil
}

// tree lookups; creation is a setup-path cost, the steady state only reads.
func treeFor[K comparable](m map[K]*restree.Tree, k K, horizon int) *restree.Tree {
	t := m[k]
	if t == nil {
		t = restree.NewTree(horizon)
		m[k] = t
	}
	return t
}

// winMax reads a demand profile over the request window (0 for absent trees).
//
//colibri:nomalloc
func winMax[K comparable](m map[K]*restree.Tree, k K, start, end restree.Epoch, timed bool) int64 {
	t := m[k]
	if t == nil {
		return 0
	}
	if timed {
		return t.Max(start, end)
	}
	return t.MaxAll()
}

// charge adds (or with negative delta, removes) demand over an entry window.
func (st *RestreeState) charge(e *rsEntry, delta int64) {
	tIn := treeFor(st.demIn, e.req.In, st.horizon)
	tTube := treeFor(st.demTube, tubeKey{e.req.In, e.req.Eg}, st.horizon)
	tSrc := treeFor(st.demSrc, srcEgKey{e.req.Src, e.req.Eg}, st.horizon)
	if e.timed {
		tIn.Add(e.start, e.end, delta)
		tTube.Add(e.start, e.end, delta)
		tSrc.Add(e.start, e.end, delta)
		return
	}
	tIn.AddAll(delta)
	tTube.AddAll(delta)
	tSrc.AddAll(delta)
}

// AdmitSegR runs bounded-tube-fairness admission over the request's validity
// window and records the reservation on success.
func (st *RestreeState) AdmitSegR(req Request) (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.clock()
	st.advanceLocked(now)
	return st.admitLocked(req, now)
}

//colibri:nomalloc
func (st *RestreeState) admitLocked(req Request, now uint32) (uint64, error) {
	if req.MaxKbps == 0 {
		return 0, ErrZeroDemand
	}
	if _, ok := st.entries[req.ID]; ok {
		return 0, ErrDuplicate
	}
	capIn, ok := st.capIn[req.In]
	if !ok {
		return 0, ErrUnknownIf
	}
	capEg, ok := st.capEg[req.Eg]
	if !ok {
		return 0, ErrUnknownIf
	}
	tk := tubeKey{req.In, req.Eg}
	if tc, ok := st.tubeCap[tk]; ok && tc < capEg {
		capEg = tc
	}
	start, end, timed, err := st.window(req, now)
	if err != nil {
		return 0, err
	}

	d := float64(req.MaxKbps)
	sk := srcEgKey{req.Src, req.Eg}

	// The same three-step scale chain as State.admitLocked, with each
	// aggregate answered by a range-max query over the request window
	// instead of a scalar.
	dIn := float64(winMax(st.demIn, req.In, start, end, timed))
	dTube := float64(winMax(st.demTube, tk, start, end, timed))
	dSrc := float64(winMax(st.demSrc, sk, start, end, timed))

	fIn := scale(capIn, dIn+d)
	fTube := scale(capEg, fIn*(dTube+d))
	fSrc := scale(capEg, dSrc+d)
	adj := d * fIn * fTube * fSrc

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
		return 0, ErrBelowMinimum
	}

	st.seq++
	e := rsEntry{req: req, adj: adj, grant: g, start: start, end: end, timed: timed, seq: st.seq}
	st.charge(&e, int64(req.MaxKbps))
	st.adjEg[req.Eg] += adj
	st.allocEg[req.Eg] += g
	st.entries[req.ID] = e
	if timed {
		st.heap = append(st.heap, rsExp{end: end, seq: e.seq, id: req.ID})
		st.heapUp(len(st.heap) - 1)
	}
	return g, nil
}

// Release removes an admitted reservation. Unknown IDs (including those
// already auto-expired) are a no-op.
func (st *RestreeState) Release(id reservation.ID) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.advanceLocked(st.clock())
	st.releaseLocked(id)
}

//colibri:nomalloc
func (st *RestreeState) releaseLocked(id reservation.ID) {
	e, ok := st.entries[id]
	if !ok {
		return
	}
	st.charge(&e, -int64(e.req.MaxKbps))
	st.adjEg[e.req.Eg] = clampNonNeg(st.adjEg[e.req.Eg] - e.adj)
	if st.allocEg[e.req.Eg] >= e.grant {
		st.allocEg[e.req.Eg] -= e.grant
	} else {
		st.allocEg[e.req.Eg] = 0
	}
	delete(st.entries, id)
	// A timed entry's heap element goes stale and is skipped by advance.
}

// restoreLocked re-admits a snapshot verbatim, bypassing the proportional
// computation (failed-renewal rollback). The entry keeps its seq, so a stale
// heap element left by releaseLocked becomes valid again.
func (st *RestreeState) restoreLocked(old rsEntry) {
	st.charge(&old, int64(old.req.MaxKbps))
	st.adjEg[old.req.Eg] += old.adj
	st.allocEg[old.req.Eg] += old.grant
	st.entries[old.req.ID] = old
}

// advanceLocked releases every timed reservation whose window ended at or
// before now, in (expiry epoch, admission order) order.
//
//colibri:nomalloc
func (st *RestreeState) advanceLocked(now uint32) {
	cur := restree.Epoch(now / st.epochSec)
	for len(st.heap) > 0 && st.heap[0].end <= cur {
		top := st.heap[0]
		st.heapPop()
		e, ok := st.entries[top.id]
		if !ok || e.seq != top.seq {
			continue // stale: renewed, released, or restored under a new seq
		}
		st.releaseLocked(top.id)
	}
}

// RenewSegR re-admits an existing reservation with fresh scale factors and a
// fresh validity window; on failure the old snapshot is restored. Unlike
// RenewSegRWithUndo this path builds no undo closure, keeping the steady-
// state renewal churn allocation-free (cserv.CPlane.RenewBatch runs here).
//
//colibri:nomalloc
func (st *RestreeState) RenewSegR(req Request) (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.clock()
	st.advanceLocked(now)
	old, had := st.entries[req.ID]
	if had {
		st.releaseLocked(req.ID)
	}
	g, err := st.admitLocked(req, now)
	if err != nil {
		if had {
			st.restoreLocked(old)
		}
		return 0, err
	}
	return g, nil
}

// RenewSegRWithUndo is RenewSegR returning an undo closure restoring the
// pre-renewal snapshot. The closure must run promptly (within the old
// window), as on every implementation of Admitter.
func (st *RestreeState) RenewSegRWithUndo(req Request) (grant uint64, undo func(), err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.clock()
	st.advanceLocked(now)
	old, had := st.entries[req.ID]
	if had {
		st.releaseLocked(req.ID)
	}
	g, err := st.admitLocked(req, now)
	if err != nil {
		if had {
			st.restoreLocked(old)
		}
		return 0, nil, err
	}
	if !had {
		id := req.ID
		return g, func() {
			st.mu.Lock()
			defer st.mu.Unlock()
			st.releaseLocked(id)
		}, nil
	}
	id := req.ID
	return g, func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		st.releaseLocked(id)
		st.restoreLocked(old)
	}, nil
}

// AdjustGrant lowers a reservation's recorded grant to the final backward-
// pass value, freeing the difference at the egress.
func (st *RestreeState) AdjustGrant(id reservation.ID, finalKbps uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[id]
	if !ok {
		return reservation.ErrNotFound
	}
	if finalKbps > e.grant {
		return ErrRaiseGrant
	}
	st.allocEg[e.req.Eg] -= e.grant - finalKbps
	e.grant = finalKbps
	st.entries[id] = e
	return nil
}

// AllocatedKbps returns the total granted bandwidth at an egress.
func (st *RestreeState) AllocatedKbps(eg topology.IfID) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.allocEg[eg]
}

// GrantOf returns the recorded grant for a reservation (0 if unknown).
func (st *RestreeState) GrantOf(id reservation.ID) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.entries[id].grant
}

// Len returns the number of live reservations (after expiring due ones).
func (st *RestreeState) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.advanceLocked(st.clock())
	return len(st.entries)
}

// DemandProfile iterates the per-epoch demand of one ingress interface over
// [fromT, toT) — the telemetry snapshot iterator, exposing the tree contents
// without copying.
func (st *RestreeState) DemandProfile(in topology.IfID, fromT, toT uint32, f func(e restree.Epoch, kbps int64)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	t := st.demIn[in]
	if t == nil {
		return
	}
	start := restree.Epoch(fromT / st.epochSec)
	end := restree.Epoch((uint64(toT) + uint64(st.epochSec) - 1) / uint64(st.epochSec))
	if end <= start {
		end = start + 1
	}
	t.Snapshot(start, end, f)
}

// heap helpers: min-heap by (end, seq) with lazy invalidation.

func (st *RestreeState) heapLess(i, j int) bool {
	if st.heap[i].end != st.heap[j].end {
		return st.heap[i].end < st.heap[j].end
	}
	return st.heap[i].seq < st.heap[j].seq
}

//colibri:nomalloc
func (st *RestreeState) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !st.heapLess(i, p) {
			return
		}
		st.heap[i], st.heap[p] = st.heap[p], st.heap[i]
		i = p
	}
}

//colibri:nomalloc
func (st *RestreeState) heapPop() {
	last := len(st.heap) - 1
	st.heap[0] = st.heap[last]
	st.heap[last] = rsExp{}
	st.heap = st.heap[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			return
		}
		if c+1 < last && st.heapLess(c+1, c) {
			c++
		}
		if !st.heapLess(c, i) {
			return
		}
		st.heap[i], st.heap[c] = st.heap[c], st.heap[i]
		i = c
	}
}
