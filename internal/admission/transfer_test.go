package admission

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"colibri/internal/reservation"
)

// splitOracle is the split's arithmetic as nested maps keyed by SegR ID, the
// form it had before pair handles: demand and grants per core per up, the
// demand total per core.
type splitOracle struct {
	demand, granted map[reservation.ID]map[reservation.ID]uint64
	total           map[reservation.ID]uint64
}

func newSplitOracle() *splitOracle {
	return &splitOracle{demand: map[reservation.ID]map[reservation.ID]uint64{},
		granted: map[reservation.ID]map[reservation.ID]uint64{}, total: map[reservation.ID]uint64{}}
}

func (o *splitOracle) pair(core reservation.ID) {
	if o.demand[core] == nil {
		o.demand[core], o.granted[core] = map[reservation.ID]uint64{}, map[reservation.ID]uint64{}
	}
}

func (o *splitOracle) admit(core, up reservation.ID, req, upCap, coreCap, upAvail, coreAvail uint64) uint64 {
	o.pair(core)
	capped := min(req, upCap)
	o.demand[core][up] += capped
	o.total[core] += capped
	grant := min(req, upAvail, coreAvail)
	if tot := o.total[core]; tot > coreCap {
		fair, room := coreCap*o.demand[core][up]/tot, uint64(0)
		if fair > o.granted[core][up] {
			room = fair - o.granted[core][up]
		}
		grant = min(grant, room)
	}
	o.granted[core][up] += grant
	return grant
}

func (o *splitOracle) release(core, up reservation.ID, d, g uint64) {
	o.pair(core)
	o.demand[core][up] = subFloor(o.demand[core][up], d)
	o.total[core] = subFloor(o.total[core], d)
	o.granted[core][up] = subFloor(o.granted[core][up], g)
}

func (o *splitOracle) charge(core, up reservation.ID, d, g uint64) {
	o.pair(core)
	o.demand[core][up] += d
	o.total[core] += d
	o.granted[core][up] += g
}

// drop forgets a SegR on either side of its pairs.
func (o *splitOracle) drop(id reservation.ID) {
	delete(o.demand, id)
	delete(o.granted, id)
	delete(o.total, id)
	for core, ups := range o.demand {
		o.total[core] = subFloor(o.total[core], ups[id])
		delete(ups, id)
		delete(o.granted[core], id)
	}
}

// coreTotal is what the split counts against a core-SegR's capacity.
func (t *TransferSplit) coreTotal(core reservation.ID) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.cores[core]; c != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.total
	}
	return 0
}

// TestTransferSplitMatchesOracle drives random admissions, releases (some
// beyond what the pair holds), charges and SegR drops over two core-SegRs and
// three up-SegRs through pair handles, and holds every grant, every pair's
// books and every core's total to the oracle after each step. Handles are
// resolved once and kept until a drop forgets their pair; a handle kept past
// the drop must change nothing the split still counts.
func TestTransferSplitMatchesOracle(t *testing.T) {
	cores := []reservation.ID{{SrcAS: ia(1, 1), Num: 1}, {SrcAS: ia(1, 1), Num: 2}}
	ups := []reservation.ID{{SrcAS: ia(1, 2), Num: 1}, {SrcAS: ia(1, 3), Num: 1}, {SrcAS: ia(1, 4), Num: 1}}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ts, o := NewTransferSplit(), newSplitOracle()
			handles := map[[2]reservation.ID]*PairBooks{}
			var stale []*PairBooks
			contended, staleOps := 0, 0
			bw := func(n int) uint64 { return uint64(rng.Intn(n)) }
			for step := 0; step < 2000; step++ {
				core, up := cores[rng.Intn(len(cores))], ups[rng.Intn(len(ups))]
				key := [2]reservation.ID{core, up}
				h := handles[key]
				if h == nil {
					h = ts.Pair(core, up)
					handles[key] = h
				}
				switch k := rng.Intn(20); {
				case k < 9:
					req, upCap, coreCap, upAvail, coreAvail := bw(900), 200+bw(800), 1000+bw(500), bw(1200), bw(1200)
					got, want := h.Admit(req, upCap, coreCap, upAvail, coreAvail), o.admit(core, up, req, upCap, coreCap, upAvail, coreAvail)
					if got != want {
						t.Fatalf("step %d: Admit(%d) on %s/%s = %d, oracle %d", step, req, core, up, got, want)
					}
					if got < min(req, upAvail, coreAvail) {
						contended++
					}
				case k < 15:
					d, g := bw(700), bw(700)
					h.Release(d, g)
					o.release(core, up, d, g)
				case k < 18:
					d, g := bw(400), bw(400)
					h.Charge(d, g)
					o.charge(core, up, d, g)
				case k == 18:
					ids := append(append([]reservation.ID{}, cores...), ups...)
					id := ids[rng.Intn(len(ids))]
					ts.DropSegR(id)
					o.drop(id)
					for k, h := range handles {
						if k[0] == id || k[1] == id {
							stale = append(stale, h)
							delete(handles, k)
						}
					}
				default:
					if len(stale) > 0 {
						s := stale[rng.Intn(len(stale))]
						s.Admit(bw(900), 1000, 1000, 1000, 1000)
						s.Release(bw(300), bw(300))
						s.Charge(bw(300), bw(300))
						staleOps++
					}
				}
				for _, c := range cores {
					if got, want := ts.coreTotal(c), o.total[c]; got != want {
						t.Fatalf("step %d: core %s total %d, oracle %d", step, c, got, want)
					}
					for _, u := range ups {
						var d, g uint64
						if p := ts.Lookup(c, u); p != nil {
							d, g = p.Books()
						}
						if d != o.demand[c][u] || g != o.granted[c][u] {
							t.Fatalf("step %d: %s/%s books %d/%d, oracle %d/%d", step, c, u, d, g, o.demand[c][u], o.granted[c][u])
						}
					}
				}
			}
			if contended < 50 || staleOps < 10 {
				t.Fatalf("sequence too tame: %d contended admissions, %d operations on forgotten pairs", contended, staleOps)
			}
		})
	}
}

// TestTransferSplitConcurrentPairs drives the handles of two up-SegRs on one
// core-SegR from two goroutines at once, as two hop legs do, while a third
// resolves handles of other pairs and drops one of the two up-SegRs midway.
// Every admission is returned in full, so the books end at zero; under -race
// it finds a pair's books or the core's total touched outside the core's lock.
func TestTransferSplitConcurrentPairs(t *testing.T) {
	ts := NewTransferSplit()
	core := reservation.ID{SrcAS: ia(1, 1), Num: 1}
	ups := []reservation.ID{{SrcAS: ia(1, 2), Num: 1}, {SrcAS: ia(1, 3), Num: 1}}
	handles := []*PairBooks{ts.Pair(core, ups[0]), ts.Pair(core, ups[1])}
	const rounds = 2000
	var wg sync.WaitGroup
	for _, h := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				g := h.Admit(300, 1000, 1000, 1000, 1000)
				h.Charge(100, 50)
				h.Release(300+100, g+50)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range uint32(rounds) {
			other := reservation.ID{SrcAS: ia(1, 9), Num: i}
			ts.Pair(core, other).Admit(1, 1, 1000, 1, 1)
			ts.DropSegR(other)
			if i == rounds/2 {
				ts.DropSegR(ups[1])
			}
		}
	}()
	wg.Wait()
	for i, h := range handles {
		if d, g := h.Books(); d != 0 || g != 0 {
			t.Errorf("up %d: books %d/%d after every admission returned, want 0/0", i, d, g)
		}
	}
	if tot := ts.coreTotal(core); tot != 0 {
		t.Errorf("core total %d after every admission returned, want 0", tot)
	}
	if ts.Lookup(core, ups[1]) != nil || ts.Lookup(core, ups[0]) != handles[0] {
		t.Error("the split kept the dropped up-SegR's pair or lost the other")
	}
}
