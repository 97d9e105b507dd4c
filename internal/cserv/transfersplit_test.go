package cserv

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// These tests pin the transfer-split release discipline (§4.7): the split's
// demand/granted aggregates must track exactly the live committed EER
// charges. Each test drives one path that used to leak dead demand — found
// by the 10⁶-flow renewal storm, where the accumulated leak crossed the
// core-SegR capacity and the fair-share cap refused every recovery
// re-admission (demotions 10⁶, re-promotions 0).

// TestTransferSplitRollbackRelease renews through a transfer AS whose
// downstream link is dead: the transfer AS admits into the split, then the
// forward call fails and the item rolls back. Repeated failed waves must not
// accumulate demand — once the link heals, every renewal must still be
// granted in full.
func TestTransferSplitRollbackRelease(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			gate := &gateTransport{}
			f := twoISDFabric(t, func(iaKey topology.IA, cfg *Config) {
				cfg.CPlaneShards = shards
				if iaKey == ia(1, 1) {
					gate.inner = cfg.Transport
					cfg.Transport = gate
				}
			})
			f.setupAllSegRs(t, 50_000)
			src := f.services[ia(1, 11)]
			var grants []*EERGrant
			for i := uint32(0); i < 5; i++ {
				g, err := src.RequestEER(100+i, 200+i, ia(2, 11), 8_000)
				if err != nil {
					t.Fatalf("setup %d: %v", i, err)
				}
				grants = append(grants, g)
			}
			// Five renewal waves against a dead transfer-AS downstream link:
			// each item is admitted into the split at hop 1-1, then rolled
			// back when the forward call fails.
			gate.fail.Store(true)
			for wave := uint32(1); wave <= 5; wave++ {
				f.clock.Store(t0 + wave)
				for i, g := range grants {
					if _, err := src.RenewEER(g, 8_000); err == nil {
						t.Fatalf("wave %d item %d renewed through a dead link", wave, i)
					}
				}
			}
			// Healed: the failed waves must have left no residue, so every
			// flow renews at its full bandwidth (40 of 50 Mbps committed —
			// no contention, nothing may be shaved or refused).
			gate.fail.Store(false)
			f.clock.Store(t0 + 6)
			for i, g := range grants {
				ng, err := src.RenewEER(g, 8_000)
				if err != nil {
					t.Fatalf("item %d after heal: %v", i, err)
				}
				if bw := grantBw(ng); bw != 8_000 {
					t.Fatalf("item %d after heal: granted %d kbps, want 8000", i, bw)
				}
			}
		})
	}
}

// TestTransferSplitRenewalRelease runs many constant-bandwidth keep-alive
// waves at 80% utilization: each committed renewal must return the replaced
// version's split charge, or demand doubles on the first wave and the
// fair-share cap starts shaving grants on the second.
func TestTransferSplitRenewalRelease(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := twoISDFabric(t, func(_ topology.IA, cfg *Config) {
				cfg.CPlaneShards = shards
			})
			f.setupAllSegRs(t, 50_000)
			src := f.services[ia(1, 11)]
			var grants []*EERGrant
			for i := uint32(0); i < 5; i++ {
				g, err := src.RequestEER(100+i, 200+i, ia(2, 11), 8_000)
				if err != nil {
					t.Fatalf("setup %d: %v", i, err)
				}
				grants = append(grants, g)
			}
			for wave := uint32(1); wave <= 10; wave++ {
				f.clock.Store(t0 + wave)
				for i, g := range grants {
					ng, err := src.RenewEER(g, 8_000)
					if err != nil {
						t.Fatalf("wave %d item %d: %v", wave, i, err)
					}
					if bw := grantBw(ng); bw != 8_000 {
						t.Fatalf("wave %d item %d: granted %d kbps, want 8000", wave, i, bw)
					}
					grants[i] = ng
				}
			}
		})
	}
}

// TestTransferSplitSegRDropRelease lets the registry at the transfer AS
// expire the up-SegR alone while EERs still ride on it, so that housekeeping
// drops the SegR and every record over it. Each record's split charge must go
// back as it goes, and the split must forget the pair — the core-SegR's total
// reads zero —; otherwise the dead demand stays in the core-SegR's total and
// shrinks every other up-SegR's fair share for good. A second up-SegR onto the
// same core then carries the same load in full.
func TestTransferSplitSegRDropRelease(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := twoISDFabric(t, func(_ topology.IA, cfg *Config) {
				cfg.CPlaneShards = shards
			})
			up, core, _ := f.setupAllSegRs(t, 50_000)
			if _, err := f.services[ia(1, 2)].SetupSegment(f.reg.UpSegments(ia(1, 2))[0], 0, 50_000); err != nil {
				t.Fatal(err)
			}
			for i := uint32(0); i < 5; i++ {
				if _, err := f.services[ia(1, 11)].RequestEER(100+i, 200+i, ia(2, 11), 8_000); err != nil {
					t.Fatalf("setup %d: %v", i, err)
				}
			}
			transfer := f.services[ia(1, 1)]
			if b := booksOf(transfer, up.ID, core.ID); b.demand != 40_000 || b.grants != 40_000 || b.total != 40_000 {
				t.Fatalf("split before the drop: %d/%d of %d kbps, want 40000/40000 of 40000", b.demand, b.grants, b.total)
			}
			// The up-SegR's version at 1-1 ends now (written into the
			// registry's record), well before the EERs over it.
			f.clock.Add(1)
			if err := transfer.cp.withSegR(up.ID, func(_ *cplaneShard, r *segRec) error {
				r.active.ExpT = f.now()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			transfer.Tick()
			if _, err := transfer.Store().GetSegR(up.ID); err == nil {
				t.Fatal("housekeeping kept the expired up-SegR")
			}
			b := booksOf(transfer, up.ID, core.ID)
			if len(b.records) != 0 {
				t.Fatalf("%d EER records left over the dropped up-SegR", len(b.records))
			}
			if b.demand != 0 || b.grants != 0 || b.total != 0 {
				t.Fatalf("split after the drop: %d/%d of %d kbps for a pair with no records, want 0/0 of 0", b.demand, b.grants, b.total)
			}
			// Once the flows have lapsed on the rest of their path, 40 of the
			// core-SegR's 50 Mbps again, over 1-2's up-SegR: with the dead 40 Mbps
			// still counted at 1-1, the second flow's fair share falls short.
			f.clock.Add(reservation.EERLifetimeSeconds + 1)
			for _, iaKey := range f.topo.SortedIAs() {
				f.services[iaKey].Tick()
			}
			for i := uint32(0); i < 5; i++ {
				g, err := f.services[ia(1, 2)].RequestEER(300+i, 400+i, ia(2, 11), 8_000)
				if err != nil {
					t.Fatalf("setup %d over the second up-SegR: %v", i, err)
				}
				if bw := grantBw(g); bw != 8_000 {
					t.Fatalf("setup %d over the second up-SegR: granted %d kbps, want 8000", i, bw)
				}
			}
		})
	}
}

// TestTransferSplitExpiryRelease lets a fleet of EERs expire without renewal
// and re-establishes the same load: CPlane.Tick must return the expired
// transfer-hop records' split charges as it removes them, or the dead demand
// blocks re-admission forever (the storm's crash-recovery failure mode, in
// miniature).
func TestTransferSplitExpiryRelease(t *testing.T) {
	f := cpFabric(t, 2, nil)
	f.setupAllSegRs(t, 50_000)
	src := f.services[ia(1, 11)]
	for i := uint32(0); i < 6; i++ {
		if _, err := src.RequestEER(100+i, 200+i, ia(2, 11), 8_000); err != nil {
			t.Fatalf("setup %d: %v", i, err)
		}
	}
	// Past the 16 s EER lifetime, unrenewed: housekeeping expires the
	// records and, with them, their transfer-split charges.
	f.clock.Store(t0 + 17)
	for _, iaKey := range f.topo.SortedIAs() {
		f.services[iaKey].Tick()
	}
	// The same load again as fresh flows: 48 of 50 Mbps must fit in full.
	for i := uint32(0); i < 6; i++ {
		g, err := src.RequestEER(300+i, 400+i, ia(2, 11), 8_000)
		if err != nil {
			t.Fatalf("re-establish %d: %v", i, err)
		}
		if bw := grantBw(g); bw != 8_000 {
			t.Fatalf("re-establish %d: granted %d kbps, want 8000", i, bw)
		}
	}
}

// splitOracle is the split's arithmetic as nested maps keyed by SegR ID, the
// form it had before the registry kept it: demand and grants per core per up,
// the demand total per core.
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

func subFloor(a, b uint64) uint64 { return a - min(a, b) }

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

// splitHandle is what a leg keeps of the books it admitted into: the pair of
// SegRs, the pair's handle and its generation then.
type splitHandle struct {
	up, core reservation.ID
	ph       segH
	gen      uint32
}

// withBooks runs fn on the books h names, under the locks of its SegRs' shards.
func (h splitHandle) withBooks(cp *CPlane, fn func(b splitBooks)) {
	cp.withPath([]reservation.ID{h.up, h.core}, func(p eerPath) { fn(p.books(h.ph, h.gen)) })
}

// TestTransferSplitMatchesOracle drives random admissions, releases (some
// beyond what the pair holds), charges and SegR drops over two core-SegRs and
// three up-SegRs through the registry's pair-table books, and holds every
// grant, every pair's books and every core's total to the oracle after each
// step. Admissions resolve their pair afresh, as a hop leg does; releases and
// charges go through a handle kept from an earlier admission, as a leg's
// commit and rollback do. A handle kept past a drop of either SegR — the SegR
// set up again at once, so that its pairs form again — must change nothing.
func TestTransferSplitMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clk := newCPClock(1000)
			cp := newTestCPlane(t, 4, clk)
			var cores, ups []reservation.ID
			kind := map[reservation.ID]segment.Type{}
			for i := uint32(1); i <= 5; i++ {
				k := segment.Up
				if i <= 2 {
					k = segment.Core
				}
				id := setupTestSegR(t, cp, i, k, math.MaxUint32)
				kind[id] = k
				if k == segment.Core {
					cores = append(cores, id)
				} else {
					ups = append(ups, id)
				}
			}
			o := newSplitOracle()
			handles := map[[2]reservation.ID]splitHandle{}
			var stale []splitHandle
			contended, staleOps := 0, 0
			bw := func(n int) uint64 { return uint64(rng.Intn(n)) }
			for step := 0; step < 2000; step++ {
				core, up := cores[rng.Intn(len(cores))], ups[rng.Intn(len(ups))]
				key := [2]reservation.ID{core, up}
				h, known := handles[key]
				switch k := rng.Intn(20); {
				case k < 9 || !known:
					req, upCap, coreCap, upAvail, coreAvail := bw(900), 200+bw(800), 1000+bw(500), bw(1200), bw(1200)
					var got uint64
					cp.withPath([]reservation.ID{up, core}, func(p eerPath) {
						b := p.splitBooks()
						got = b.admit(req, min(req, upCap), coreCap, min(upAvail, coreAvail))
						handles[key] = splitHandle{up: up, core: core, ph: p.cover, gen: b.pair.gen}
					})
					if want := o.admit(core, up, req, upCap, coreCap, upAvail, coreAvail); got != want {
						t.Fatalf("step %d: admission of %d on %s/%s = %d, oracle %d", step, req, core, up, got, want)
					}
					if got < min(req, upAvail, coreAvail) {
						contended++
					}
				case k < 15:
					d, g := bw(700), bw(700)
					h.withBooks(cp, func(b splitBooks) { b.release(d, g) })
					o.release(core, up, d, g)
				case k < 18:
					d, g := bw(400), bw(400)
					h.withBooks(cp, func(b splitBooks) { b.charge(d, g) })
					o.charge(core, up, d, g)
				case k == 18:
					id := append(slices.Clone(cores), ups...)[rng.Intn(len(cores)+len(ups))]
					cp.DropSegR(id)
					setupTestSegR(t, cp, id.Num, kind[id], math.MaxUint32)
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
						s.withBooks(cp, func(b splitBooks) {
							b.release(bw(300), bw(300))
							b.charge(bw(300), bw(300))
						})
						staleOps++
					}
				}
				for _, c := range cores {
					var total uint64
					for _, u := range ups {
						d, g, tot := splitOf(cp, u, c)
						if d != o.demand[c][u] || g != o.granted[c][u] {
							t.Fatalf("step %d: %s/%s books %d/%d, oracle %d/%d", step, c, u, d, g, o.demand[c][u], o.granted[c][u])
						}
						total = tot
					}
					if total != o.total[c] {
						t.Fatalf("step %d: core %s total %d, oracle %d", step, c, total, o.total[c])
					}
				}
			}
			if contended < 50 || staleOps < 10 {
				t.Fatalf("sequence too tame: %d contended admissions, %d operations on forgotten pairs", contended, staleOps)
			}
		})
	}
}

// auditSplit demands of a quiescent engine — no leg between its forward pass
// and its commit or rollback — that every up→core pair's split books hold, as
// demand and as grants, exactly the bandwidth of its live records, and every
// SegR's split total the demand of the pairs it is the core-SegR of.
func auditSplit(t *testing.T, cp *CPlane, step string) {
	t.Helper()
	totals := map[segH]uint64{}
	for _, sh := range cp.shards {
		sh.mu.Lock()
		held := map[segH]uint64{}
		for i := range sh.eers.Len() {
			if _, e := sh.eers.At(i); e.cover&pairBit != 0 {
				held[e.cover] += uint64(e.bw)
			}
		}
		for i, b := range sh.pairs {
			if b.h == 0 || cp.slot(b.h).rec.segType != segment.Up || cp.slot(b.h2).rec.segType != segment.Core {
				continue
			}
			if ph := pairBit | segH(i); b.demand != held[ph] || b.granted != held[ph] {
				t.Errorf("%s: pair %#x books %d/%d, its records hold %d", step, ph, b.demand, b.granted, held[ph])
			}
			totals[b.h2] += b.demand
		}
		sh.mu.Unlock()
	}
	for _, sh := range cp.shards {
		sh.mu.Lock()
		for id, r := range sh.segs {
			if r.splitTotal != totals[r.h] {
				t.Errorf("%s: SegR %s's split total is %d, its pairs' demand %d", step, id, r.splitTotal, totals[r.h])
			}
		}
		sh.mu.Unlock()
	}
}

// TestTransferSplitConcurrentPairs runs hop legs over two up-SegRs on one
// core-SegR from two goroutines at once, as two requests through a transfer AS
// do — the forward pass under one acquisition of the shard locks, the commit
// or rollback under another —, while a third runs legs over further up-SegRs
// on the core, each dropped between its leg's forward pass and its commit or
// rollback, and midway drops one of the two up-SegRs and sets it up again.
// Once every leg is done the books hold exactly what the live records were
// granted, and once those have lapsed nothing; under -race it finds split
// state touched outside the shard locks.
func TestTransferSplitConcurrentPairs(t *testing.T) {
	clk := newCPClock(1000)
	cp := newTestCPlane(t, 4, clk)
	core := setupTestSegR(t, cp, 1, segment.Core, math.MaxUint32)
	ups := []reservation.ID{setupTestSegR(t, cp, 2, segment.Up, math.MaxUint32), setupTestSegR(t, cp, 3, segment.Up, math.MaxUint32)}
	expT := clk.now() + reservation.EERLifetimeSeconds
	// leg asks 1 kbps for EER (src, num) over up and the core, and commits
	// what it was granted or rolls back; between runs between the two passes.
	leg := func(src topology.IA, up reservation.ID, num uint32, commit bool, between func()) {
		l := hopLeg{hopCover: hopCover{ids: [2]reservation.ID{up, core}, n: 2}, src: src}
		it := hopItem{grant: 1}
		cp.withPath(l.segs(), func(p eerPath) {
			if l.open(&p) == Granted {
				l.admit(&p, &it, num, 1, expT)
			}
		})
		if between != nil {
			between()
		}
		cp.withPath(l.segs(), func(p eerPath) {
			if commit && it.admitted {
				l.commit(&p, &it, num, it.grant)
			} else {
				l.rollback(&p, &it, num)
			}
		})
	}
	const rounds = 600
	var wg sync.WaitGroup
	for g, up := range ups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range uint32(rounds) {
				leg(ia(3, topology.ASID(1+g)), up, i, i%2 == 0, nil)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range uint32(rounds) {
			other := segReq(100+i, 50, 1, 2, 1_000)
			if _, err := cp.setupSegR(other, segment.Up, reservation.Version{Ver: 1, ExpT: math.MaxUint32}); err != nil {
				t.Error(err)
				return
			}
			leg(ia(3, 9), other.ID, i, i%2 == 0, func() { cp.DropSegR(other.ID) })
			if i == rounds/2 {
				cp.DropSegR(ups[1])
				if _, err := cp.setupSegR(segReq(3, 50, 1, 2, 1_000), segment.Up, reservation.Version{Ver: 1, ExpT: math.MaxUint32}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	auditSplit(t, cp, "every leg done")
	if d, g, _ := splitOf(cp, ups[0], core); d == 0 || g == 0 {
		t.Errorf("the first up-SegR's committed legs left %d/%d kbps in its books", d, g)
	}
	clk.step(reservation.EERLifetimeSeconds)
	cp.Tick()
	auditSplit(t, cp, "every record lapsed")
	for _, up := range ups {
		if d, g, tot := splitOf(cp, up, core); d != 0 || g != 0 || tot != 0 {
			t.Errorf("%s: books %d/%d of %d once every record lapsed, want 0/0 of 0", up, d, g, tot)
		}
	}
}

// TestTransferSplitRacesSegRActivation renews and activates the up-SegR at
// every AS on it, over and over, while four goroutines set EERs up through the
// transfer AS, whose split reads the up- and core-SegR's bandwidth: under
// -race it finds a version read outside the lock it is written under.
func TestTransferSplitRacesSegRActivation(t *testing.T) {
	f := twoISDFabric(t, func(_ topology.IA, cfg *Config) {
		cfg.CPlaneShards = 4
		cfg.RateLimit = 1 << 30
	})
	up, _, _ := f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	var wg sync.WaitGroup
	var stop atomic.Bool
	for g := range uint32(4) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint32(0); !stop.Load(); i++ {
				if _, err := src.RequestEER(1_000*g+i, 200, ia(2, 11), 10); err != nil {
					t.Errorf("setup %d/%d: %v", g, i, err)
					return
				}
			}
		}()
	}
	for range 600 {
		ver, _, err := src.RenewSegment(up.ID, 0, 100_000)
		if err == nil {
			err = src.ActivateSegment(up.ID, ver)
		}
		if err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}
