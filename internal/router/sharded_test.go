package router

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/monitor"
	"colibri/internal/ofd"
	"colibri/internal/packet"
	"colibri/internal/replay"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// The sharded-vs-single-core differential: the same packet stream, with the
// same batch boundaries and clock, must produce element-wise identical
// verdicts (action, egress, destination host, drop reason) and identical
// buffer mutations whether it runs through one Worker or through
// router.Sharded at any worker count. Flow pinning makes this exact: every
// per-flow mechanism (replay window, OFD budget, escalation, policing) sees
// a flow's full, ordered packet stream on exactly one shard.
//
// The stream deliberately exercises the whole protection stack: conforming
// flows (some sharing a ResID across source hosts), overusing flows that get
// flagged by the OFD and policed by the escalated token bucket (through the
// shared reserve on the sharded side), replayed duplicates, stale
// timestamps, expired reservations, a blocklisted source AS, forged HVFs,
// and undecodable runts.

const diffBaseNs = int64(1_700_000_000) * 1e9

// diffFlow is one flow of the differential stream.
type diffFlow struct {
	res    packet.ResInfo
	eer    packet.EERInfo
	sigma  cryptoutil.Key // σ for the router's hop (forged for badHVF flows)
	forged bool           // derive σ under the wrong secret (HVF mismatch)
	dup    bool           // emit every packet twice (replay)
	stale  bool           // timestamps 1 s in the past
	weight int            // packets per batch
	size   int            // payload bytes
}

// diffNet is the generated fixture: a router secret, a hop position, and a
// mixed flow population.
type diffNet struct {
	secret cryptoutil.Key
	ia     topology.IA
	path   []packet.HopField
	hop    int
	flows  []*diffFlow
	// ts hands out per-reservation unique timestamps.
	ts map[uint32]uint64
}

func newDiffNet(seed int64) *diffNet {
	rng := rand.New(rand.NewSource(seed))
	n := &diffNet{
		secret: cryptoutil.Key{0xd1, byte(seed), 0x33},
		ia:     topology.MustIA(1, 1),
		path:   []packet.HopField{{In: 0, Eg: 1}, {In: 2, Eg: 3}, {In: 4, Eg: 0}},
		hop:    1,
		ts:     make(map[uint32]uint64),
	}
	expT := uint32(diffBaseNs/1e9) + reservation.EERLifetimeSeconds
	addFlow := func(resID uint32, host uint32, bwKbps uint32, mut func(*diffFlow)) {
		f := &diffFlow{
			res: packet.ResInfo{
				SrcAS: topology.MustIA(1, 11), ResID: resID,
				BwKbps: bwKbps, ExpT: expT, Ver: 1,
			},
			eer:    packet.EERInfo{SrcHost: host, DstHost: 0x0a00ff01},
			weight: 1 + rng.Intn(2),
			size:   64 + rng.Intn(512),
		}
		if mut != nil {
			mut(f)
		}
		secret := n.secret
		if f.forged {
			secret = cryptoutil.Key{0xee}
		}
		f.sigma = sigmaFor(secret, &f.res, &f.eer, n.path[n.hop])
		n.flows = append(n.flows, f)
	}
	// Conforming flows, unique reservations.
	for i := uint32(0); i < 16; i++ {
		addFlow(100+i, 0x0a000000+i, 1<<20, nil)
	}
	// One reservation shared by three source hosts (conforming — the flow
	// key ResID ‖ host spreads them over shards).
	for h := uint32(0); h < 3; h++ {
		addFlow(400, 0x0a00aa00+h, 1<<20, nil)
	}
	// Overusers: tiny reservations hit with full-size packets every batch —
	// flagged by the OFD, escalated, then policed to their reserved rate.
	for i := uint32(0); i < 4; i++ {
		addFlow(500+i, 0x0a00bb00+i, 800, func(f *diffFlow) {
			f.weight = 2
			f.size = 952 // DataLen(3 hops, 952) = 1024 total bytes
		})
	}
	// Replayed flow: every packet sent twice.
	addFlow(600, 0x0a00cc01, 1<<20, func(f *diffFlow) { f.dup = true })
	// Stale flow: timestamps outside the freshness window.
	addFlow(610, 0x0a00cc02, 1<<20, func(f *diffFlow) { f.stale = true })
	// Expired reservation.
	addFlow(620, 0x0a00cc03, 1<<20, func(f *diffFlow) {
		f.res.ExpT = uint32(diffBaseNs/1e9) - 10
		f.sigma = sigmaFor(n.secret, &f.res, &f.eer, n.path[n.hop])
	})
	// Blocklisted source AS (seeded below in runDifferential).
	addFlow(630, 0x0a00cc04, 1<<20, func(f *diffFlow) {
		f.res.SrcAS = topology.MustIA(1, 66)
		f.sigma = sigmaFor(n.secret, &f.res, &f.eer, n.path[n.hop])
	})
	// Forged HVF: σ computed under the wrong secret.
	addFlow(640, 0x0a00cc05, 1<<20, func(f *diffFlow) { f.forged = true })
	return n
}

// mkPacket serializes one TData packet of the flow, with a valid (or, for
// forged flows, deliberately wrong) HVF at the fixture's hop.
func (n *diffNet) mkPacket(f *diffFlow, ts uint64, payloadLen int) []byte {
	pkt := packet.Packet{
		Type:    packet.TData,
		CurrHop: uint8(n.hop),
		Res:     f.res,
		EER:     f.eer,
		Path:    n.path,
		Ts:      ts,
		Payload: make([]byte, payloadLen),
		HVFs:    make([]byte, len(n.path)*packet.HVFLen),
	}
	size := packet.DataLen(len(n.path), payloadLen)
	var in [packet.HVFInputLen]byte
	packet.HVFInput(&in, ts, uint32(size))
	var ks cryptoutil.AESSchedule
	var mac [cryptoutil.MACSize]byte
	cryptoutil.ExpandAES128(&ks, &f.sigma)
	cryptoutil.EncryptAES128(&ks, &mac, &in)
	copy(pkt.HVFs[n.hop*packet.HVFLen:], mac[:packet.HVFLen])
	buf := make([]byte, size)
	if _, err := pkt.SerializeTo(buf); err != nil {
		panic(err)
	}
	return buf
}

// genBatches produces the master stream: `batches` batches of packets at
// 250 µs spacing, interleaving all flows, with duplicates and junk mixed in.
func (n *diffNet) genBatches(seed int64, batches int) (pkts [][][]byte, times []int64) {
	rng := rand.New(rand.NewSource(seed * 7919))
	for b := 0; b < batches; b++ {
		nowNs := diffBaseNs + int64(b)*250_000
		var batch [][]byte
		seq := uint64(0)
		for _, f := range n.flows {
			for k := 0; k < f.weight; k++ {
				if rng.Intn(8) == 0 { // occasional skip keeps batches uneven
					continue
				}
				// Per-reservation unique, fresh timestamps (shared-ResID
				// flows share the counter so replay IDs never collide).
				ts := uint64(nowNs) + seq<<1 + uint64(n.ts[f.res.ResID]&1)
				n.ts[f.res.ResID]++
				seq++
				if f.stale {
					ts -= 1_000_000_000 // 1 s old ≫ freshness window
				}
				buf := n.mkPacket(f, ts, f.size)
				batch = append(batch, buf)
				if f.dup {
					batch = append(batch, append([]byte(nil), buf...))
				}
			}
		}
		// Junk: a runt and a bad-version packet per batch.
		batch = append(batch, []byte{1, 2, 3})
		bad := n.mkPacket(n.flows[0], uint64(nowNs)+9999, 32)
		bad[0] = 0xEE // wrong version byte
		batch = append(batch, bad)
		pkts = append(pkts, batch)
		times = append(times, nowNs)
	}
	return pkts, times
}

// clone deep-copies a batch (processing mutates forwarded buffers in place).
func cloneBatch(batch [][]byte) [][]byte {
	out := make([][]byte, len(batch))
	for i, b := range batch {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

// reasonOf maps a verdict error to its canonical drop-reason index (-1: none).
func reasonOf(err error) int {
	if err == nil {
		return -1
	}
	for i, sentinel := range dropErrs {
		if errors.Is(err, sentinel) {
			return i
		}
	}
	return len(dropErrs)
}

const diffShards = 8

func (n *diffNet) shardedConfig(workers int) ShardedConfig {
	bl := monitor.NewBlocklist()
	bl.Block(topology.MustIA(1, 66), 0)
	return ShardedConfig{
		Router: Config{
			IA: n.ia, Secret: n.secret,
			Blocklist:  bl,
			PoliceOnly: true,
		},
		Replay:  &replay.Config{},
		OFD:     &ofd.Config{},
		Shards:  diffShards,
		Workers: workers,
	}
}

// runSequential drives the master stream through a single-core Worker.
func (n *diffNet) runSequential(batches [][][]byte, times []int64) ([][]BatchVerdict, [][][]byte, int) {
	bl := monitor.NewBlocklist()
	bl.Block(topology.MustIA(1, 66), 0)
	r := New(Config{
		IA: n.ia, Secret: n.secret,
		Replay:     &replay.Config{},
		OFD:        ofd.New(ofd.Config{}),
		Blocklist:  bl,
		PoliceOnly: true,
	})
	w := r.NewWorker()
	var verdicts [][]BatchVerdict
	var bufs [][][]byte
	passed := 0
	for b, batch := range batches {
		cp := cloneBatch(batch)
		v := make([]BatchVerdict, len(cp))
		passed += w.ProcessBatch(cp, v, times[b])
		verdicts = append(verdicts, v)
		bufs = append(bufs, cp)
	}
	return verdicts, bufs, passed
}

func TestShardedDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		n := newDiffNet(seed)
		batches, times := n.genBatches(seed, 60)
		wantV, wantB, wantPassed := n.runSequential(batches, times)

		for _, workers := range []int{1, 2, 4, 8} {
			s := NewSharded(n.shardedConfig(workers))
			passed := 0
			for b, batch := range batches {
				cp := cloneBatch(batch)
				v := make([]BatchVerdict, len(cp))
				passed += s.ProcessBatch(cp, v, times[b])
				if b%4 == 3 {
					s.Merge()
				}
				for i := range v {
					if v[i].Action != wantV[b][i].Action ||
						v[i].Egress != wantV[b][i].Egress ||
						v[i].DstHost != wantV[b][i].DstHost ||
						reasonOf(v[i].Err) != reasonOf(wantV[b][i].Err) {
						t.Fatalf("seed=%d workers=%d batch=%d pkt=%d: sharded %+v (reason %d) != sequential %+v (reason %d)",
							seed, workers, b, i, v[i].Verdict, reasonOf(v[i].Err), wantV[b][i].Verdict, reasonOf(wantV[b][i].Err))
					}
					if !bytes.Equal(cp[i], wantB[b][i]) {
						t.Fatalf("seed=%d workers=%d batch=%d pkt=%d: buffer mutation differs", seed, workers, b, i)
					}
				}
			}
			if passed != wantPassed {
				t.Fatalf("seed=%d workers=%d: sharded passed %d, sequential %d", seed, workers, passed, wantPassed)
			}
			// The stream must actually have exercised the stack.
			drops := s.Drops()
			for _, reason := range []error{ErrReplay, ErrStale, ErrExpired, ErrBlocked, ErrBadHVF, ErrDecode, ErrOveruse} {
				if drops[reason.Error()] == 0 {
					t.Fatalf("seed=%d workers=%d: stream produced no %v drops — fixture lost coverage", seed, workers, reason)
				}
			}
			s.Close()
		}
	}
}

// TestShardedMergeRace drives the stream while Merge, telemetry reads, and
// watch promotion run concurrently from another goroutine — under -race this
// proves the packet path shares no unsynchronized state with the control
// plane, and the final per-flow decisions must still match the sequential
// reference exactly (merges are decision-neutral in police-only mode).
func TestShardedMergeRace(t *testing.T) {
	const seed = 3
	n := newDiffNet(seed)
	batches, times := n.genBatches(seed, 40)
	wantV, _, _ := n.runSequential(batches, times)

	for _, workers := range []int{1, 4, 8} {
		s := NewSharded(n.shardedConfig(workers))
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Merge()
				s.DropTotal()
				s.Blocklist().Blocked(0, 0)
			}
		}()
		for b, batch := range batches {
			cp := cloneBatch(batch)
			v := make([]BatchVerdict, len(cp))
			s.ProcessBatch(cp, v, times[b])
			for i := range v {
				if v[i].Action != wantV[b][i].Action || reasonOf(v[i].Err) != reasonOf(wantV[b][i].Err) {
					t.Fatalf("workers=%d batch=%d pkt=%d: decision changed under concurrent merges: %+v vs %+v",
						workers, b, i, v[i], wantV[b][i])
				}
			}
		}
		close(stop)
		wg.Wait()
		s.Close()
	}
}

// TestShardedWatchUnwatch checks escalation plumbing: Watch applies to all
// shards, Unwatch clears them and releases the shared reserve the flow's
// shard took when its first packet made the bucket.
func TestShardedWatchUnwatch(t *testing.T) {
	n := newDiffNet(1)
	s := NewSharded(n.shardedConfig(2))
	defer s.Close()
	over := n.flows[19] // reservation 500, an overuser
	id := reservation.ID{SrcAS: over.res.SrcAS, Num: over.res.ResID}
	s.Watch(id)
	for i, sh := range s.shards {
		if sh.r.Watched() != 1 {
			t.Fatalf("shard %d: flow not watched after Watch", i)
		}
	}
	pkts := [][]byte{n.mkPacket(over, uint64(diffBaseNs), over.size)}
	if s.ProcessBatch(pkts, make([]BatchVerdict, 1), diffBaseNs) != 1 || s.reserves.Len() != 1 {
		t.Fatalf("watched flow's first packet: reserves=%d, want the packet passed on a fresh reserve", s.reserves.Len())
	}
	s.Unwatch(id)
	if w := (shardedPlane{s}).Watched(); w != 0 {
		t.Fatalf("%d entries still watched after Unwatch", w)
	}
	if s.reserves.Len() != 0 {
		t.Fatalf("reserve pool not drained after Unwatch: %d", s.reserves.Len())
	}
}

// TestShardedBlocklistPromotion: a block earned on one shard becomes visible
// everywhere after Merge.
func TestShardedBlocklistPromotion(t *testing.T) {
	n := newDiffNet(1)
	s := NewSharded(n.shardedConfig(1))
	defer s.Close()
	bad := topology.MustIA(3, 33)
	s.shards[2].r.Blocklist().Block(bad, 0)
	if s.Blocklist().Blocked(bad, 0) {
		t.Fatal("global view saw the block before Merge")
	}
	s.Merge()
	if !s.Blocklist().Blocked(bad, 0) {
		t.Fatal("global view missing the block after Merge")
	}
	for i, sh := range s.shards {
		if !sh.r.Blocklist().Blocked(bad, 0) {
			t.Fatalf("shard %d missing the promoted block", i)
		}
	}
}
