package router

import (
	"errors"
	"sync"
	"testing"

	"colibri/internal/ofd"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// The watch table is the only per-flow state a transit hop keeps, so its size
// is what an adversary who churns reservation IDs can pin. These tests drive
// it through the router's packet path only: nothing calls a sweep.

// watchFlow makes a flow of its own reservation at the fixture's hop, valid
// until expT.
func (n *diffNet) watchFlow(resID uint32, bwKbps, expT uint32) *diffFlow {
	f := &diffFlow{
		res: packet.ResInfo{SrcAS: topology.MustIA(1, 11), ResID: resID, BwKbps: bwKbps, ExpT: expT, Ver: 1},
		eer: packet.EERInfo{SrcHost: 0x0a000000 + resID, DstHost: 0x0a00ff01},
	}
	f.sigma = sigmaFor(n.secret, &f.res, &f.eer, n.path[n.hop])
	return f
}

// watchPlane is what the bound is asserted on: a single router and the
// sharded front end expose the same calls.
type watchPlane interface {
	ProcessBatch(pkts [][]byte, verdicts []BatchVerdict, nowNs int64) int
	Watch(id reservation.ID)
	Watched() int
	Merge() []reservation.ID
}

// TestWatchTableBounded churns 50 000 distinct reservations through a router
// over 60 virtual seconds, each flagged exactly once — every other one
// seeded via Watch, the rest by really overusing 3× — and then silent. The
// table never holds more than the flows whose reservation has not expired
// yet, empties once the last one has, and the one flow that overuses all
// along is policed to its exact rate the whole time. The sharded plane
// merges every virtual second, so every flag is copied to the sibling shards
// with the lifetime its own shard gave it; it is not seeded via Watch, whose
// entries on the shards the flow never reaches are the operator's to Unwatch.
func TestWatchTableBounded(t *testing.T) {
	const (
		flows    = 50_000
		runNs    = int64(60e9)
		stepNs   = runNs / flows // a new reservation every 1.2 ms
		payload  = 1016          // 1088 bytes on the wire with three hops
		pktBytes = 1088
		overKbps = 800
		overGap  = int64(pktBytes*8*1e9/(overKbps*1000)) / 3 // 3× the reserved rate
	)
	for name, shards := range map[string]int{"router": 1, "sharded": 4} {
		t.Run(name, func(t *testing.T) {
			n := newDiffNet(1)
			reg := telemetry.NewRegistry(name)
			var plane watchPlane
			if shards == 1 {
				r := New(Config{IA: n.ia, Secret: n.secret, OFD: ofd.New(ofd.Config{}), PoliceOnly: true, Telemetry: reg})
				plane = &singlePlane{r, r.NewWorker()}
			} else {
				s := NewSharded(ShardedConfig{
					Router: Config{IA: n.ia, Secret: n.secret, PoliceOnly: true, Telemetry: reg},
					OFD:    &ofd.Config{}, Shards: shards, Workers: 1,
				})
				defer s.Close()
				plane = shardedPlane{s}
			}
			verdict := make([]BatchVerdict, 1)
			send := func(f *diffFlow, nowNs int64) bool {
				return plane.ProcessBatch([][]byte{n.mkPacket(f, uint64(nowNs), payload)}, verdict, nowNs) == 1
			}

			// The standing overuser renews every 12 s like a real EER, so its
			// entry outlives every version only because it keeps overusing.
			over := n.watchFlow(1, overKbps, 0)
			nextOver, overBytes, overFrom, overVer, overSlack := diffBaseNs, 0, diffBaseNs, uint16(0), 30*pktBytes
			// born[s] counts the churned flows whose reservation started in
			// second s; the ones still alive at s' are born in (s'−16, s'].
			// A shard sweeps on its own first packet of a second, so a sharded
			// plane may hold the second before as well.
			born := make([]int, runNs/1e9+reservation.EERLifetimeSeconds+2)
			live := func(sec int) (n int) {
				for s := sec; s > sec-reservation.EERLifetimeSeconds-min(shards-1, 1) && s >= 0; s-- {
					n += born[s]
				}
				return n
			}
			maxSeen := 0
			for i := 0; i < flows; i++ {
				start := diffBaseNs + int64(i)*stepNs
				for ; nextOver < start; nextOver += overGap {
					if sec := uint32(nextOver / 1e9); sec+4 > over.res.ExpT {
						overVer++
						over.res.ExpT, over.res.Ver = sec+reservation.EERLifetimeSeconds, overVer
						over.sigma = sigmaFor(n.secret, &over.res, &over.eer, n.path[n.hop])
					}
					if send(over, nextOver) {
						overBytes += pktBytes
					}
					if nextOver-overFrom >= 10e9 {
						// 10 s at 800 kbps is 1 MB to a packet or two. The first
						// 10 s add the six packets before the flag and the fresh
						// bucket's 10 KB burst with what refills while it drains.
						if overBytes < 1_000_000-2*pktBytes || overBytes > 1_000_000+overSlack {
							t.Fatalf("overuser passed %d bytes in 10 s, want its reserved 1 000 000 (+%d)", overBytes, overSlack)
						}
						overBytes, overFrom, overSlack = 0, nextOver, 2*pktBytes
					}
				}
				sec := int(start/1e9 - diffBaseNs/1e9)
				born[sec]++
				f := n.watchFlow(uint32(100+i), 128, uint32(start/1e9)+reservation.EERLifetimeSeconds)
				if i%2 == 0 && shards == 1 {
					plane.Watch(reservation.ID{SrcAS: f.res.SrcAS, Num: f.res.ResID})
					send(f, start)
				} else {
					// Three packets in a third of their 68 ms each: the second
					// finds the first in its window and is flagged.
					for k := int64(0); k < 3; k++ {
						send(f, start+k*stepNs/4)
					}
				}
				if i > 0 && int((start-stepNs)/1e9-diffBaseNs/1e9) != sec {
					plane.Merge()
				}
				// The overuser's own entry (and its siblings') on top.
				if w := plane.Watched(); w > (live(sec)+1)*shards {
					t.Fatalf("second %d: %d entries for %d live flows on %d shard(s)", sec, w, live(sec)+1, shards)
				} else if w > maxSeen {
					maxSeen = w
				}
			}
			if maxSeen < flows/8 {
				t.Fatalf("table peaked at %d entries: the churn never filled it, the bound was not tested", maxSeen)
			}
			// Silence, then one packet of a fresh conforming flow after the
			// last reservation has expired: it drives the sweep on its shard;
			// the sharded plane needs one per shard.
			end := diffBaseNs + runNs + (reservation.EERLifetimeSeconds+1)*1e9
			for i := uint32(0); i < 64; i++ {
				if f := n.watchFlow(90_000+i, 8_000, uint32(end/1e9)+4); !send(f, end) {
					t.Fatalf("fresh flow after the churn dropped: %v", verdict[0].Err)
				}
			}
			if w := plane.Watched(); w != 0 {
				t.Fatalf("%d entries left 16 s after the last packet", w)
			}
			// Telemetry tells the same story: everything that came has gone.
			snap := reg.Snapshot()
			made, gone := snap.Counters["router.escalated"], snap.Counters["router.cleared"]
			if snap.Gauges["router.watched"] != 0 || made != gone || made < flows {
				t.Fatalf("router.watched=%d escalated=%d cleared=%d after %d flagged flows all expired",
					snap.Gauges["router.watched"], made, gone, flows)
			}
		})
	}
}

// shardedPlane is a Sharded as a watchPlane: Watched sums the shards' tables
// (telemetry's router.watched gauge in a deployment).
type shardedPlane struct{ *Sharded }

func (p shardedPlane) Watched() (n int) {
	for _, sh := range p.shards {
		n += sh.r.Watched()
	}
	return n
}

// singlePlane is a Router with its one Worker as a watchPlane.
type singlePlane struct {
	*Router
	w *Worker
}

func (p *singlePlane) ProcessBatch(pkts [][]byte, verdicts []BatchVerdict, nowNs int64) int {
	return p.w.ProcessBatch(pkts, verdicts, nowNs)
}

func (p *singlePlane) Merge() []reservation.ID { return nil }

// TestWatchTableRace runs the packet path — escalations by the sketch,
// policing, the expiry sweep at every second boundary — against Watch,
// Unwatch, Merge and the table's readers from another goroutine (run with
// -race). Whatever the interleaving, a conforming flow is never policed away
// and the overusers are.
func TestWatchTableRace(t *testing.T) {
	n := newDiffNet(2)
	s := shardedPlane{NewSharded(ShardedConfig{
		Router: Config{IA: n.ia, Secret: n.secret, PoliceOnly: true},
		OFD:    &ofd.Config{}, Shards: 4, Workers: 4,
	})}
	defer s.Close()
	base := uint32(diffBaseNs / 1e9)
	var good, bad []*diffFlow
	for i := uint32(0); i < 32; i++ {
		// Short reservations, so entries expire while the stream runs.
		good = append(good, n.watchFlow(100+i, 8_000, base+2+i%5))
		bad = append(bad, n.watchFlow(200+i, 128, base+2+i%5))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := reservation.ID{SrcAS: good[i%len(good)].res.SrcAS, Num: good[i%len(good)].res.ResID}
			s.Watch(id)
			s.Merge()
			s.Watched()
			s.Unwatch(id)
		}
	}()
	overuse := 0
	for step := int64(0); step < 600; step++ { // 6 s in 10 ms batches
		now := diffBaseNs + step*10e6
		var batch [][]byte
		var owner []*diffFlow
		for i := range good {
			for _, f := range []*diffFlow{good[i], bad[i], bad[i]} { // bad: 2 × 68 ms per 10 ms
				if uint32(now/1e9) < f.res.ExpT {
					batch = append(batch, n.mkPacket(f, uint64(now)+uint64(len(batch)), 1000))
					owner = append(owner, f)
				}
			}
		}
		verdicts := make([]BatchVerdict, len(batch))
		s.ProcessBatch(batch, verdicts, now)
		for i, v := range verdicts {
			switch {
			case errors.Is(v.Err, ErrOveruse) && owner[i].res.BwKbps == 128:
				overuse++
			case v.Err != nil:
				t.Fatalf("step %d: flow %d (%d kbps): %v", step, owner[i].res.ResID, owner[i].res.BwKbps, v.Err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if overuse == 0 {
		t.Fatal("no overuser was policed")
	}
}
