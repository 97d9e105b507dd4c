package router

import (
	"errors"
	"testing"

	"colibri/internal/ofd"
	"colibri/internal/packet"
	"colibri/internal/replay"
)

// TestConcurrentWorkersFullStack drives the complete protection stack
// (replay suppression + OFD + blocklist) from four pool workers at once
// through Sharded, the multi-core face (run with -race). Each stream comes
// from its own source host, chosen so that the four streams pin to four
// different shards; the streams together overuse the reservation, so the
// only drops allowed are overuse drops.
func TestConcurrentWorkersFullStack(t *testing.T) {
	n := newTestnet(t, nil)
	const workers = 4
	const perWorker = 2000
	s := NewSharded(ShardedConfig{
		Router:  Config{IA: n.ias[1], Secret: n.secrets[n.ias[1]], PoliceOnly: true},
		Replay:  &replay.Config{},
		OFD:     &ofd.Config{},
		Shards:  workers,
		Workers: workers,
	})
	defer s.Close()

	// Pre-build the streams with distinct timestamps, one source host each.
	streams := make([][][]byte, workers)
	taken := map[int]bool{}
	for w := range streams {
		host := *n
		for {
			host.eer.SrcHost++
			if sh := shardOf(uint64(n.res.ResID)<<32|uint64(host.eer.SrcHost), s.mask); !taken[sh] {
				taken[sh] = true
				break
			}
		}
		streams[w] = make([][]byte, perWorker)
		for i := range streams[w] {
			streams[w][i] = buildRaw(t, &host, 300, uint64(baseNs+int64(w*perWorker+i)*1000), 1)
		}
	}

	// One batch per step: the i-th packet of every stream, one per shard.
	batch := make([][]byte, workers)
	verdicts := make([]BatchVerdict, workers)
	for i := 0; i < perWorker; i++ {
		for w := range streams {
			batch[w] = streams[w][i]
		}
		s.ProcessBatch(batch, verdicts, baseNs+int64(i)*1000)
		for w, v := range verdicts {
			if v.Err != nil && !errors.Is(v.Err, ErrOveruse) {
				t.Fatalf("stream %d packet %d: %v", w, i, v.Err)
			}
		}
	}
	if s.Drops()[ErrOveruse.Error()] == 0 {
		t.Error("no overuse drops: the streams never reached the detector's threshold")
	}
	// Replaying an already-seen packet is still caught afterwards.
	packet.SetCurrHopInPlace(streams[0][0], 1)
	s.ProcessBatch([][]byte{streams[0][0]}, verdicts, baseNs+int64(perWorker)*1000)
	if !errors.Is(verdicts[0].Err, ErrReplay) {
		t.Errorf("replay after the concurrent run: %v, want ErrReplay", verdicts[0].Err)
	}
}

// TestWorkersShareReplayFilter: two Workers of one Router, driven by one
// goroutine, share the Router's replay filter — a copy sent through the
// second worker is dropped (the benchmark's traced walk uses its own
// workers beside core's this way).
func TestWorkersShareReplayFilter(t *testing.T) {
	n := newTestnet(t, func(i int, cfg *Config) {
		if i == 1 {
			cfg.Replay = &replay.Config{}
		}
	})
	buf := n.buildPacket(t, nil, baseNs)
	packet.SetCurrHopInPlace(buf, 1)
	cp := append([]byte(nil), buf...)
	first, second := n.routers[1].NewWorker(), n.routers[1].NewWorker()
	if _, err := first.Process(buf, baseNs); err != nil {
		t.Fatalf("original through the first worker: %v", err)
	}
	if _, err := second.Process(cp, baseNs+1e6); !errors.Is(err, ErrReplay) {
		t.Errorf("copy through the second worker: %v, want ErrReplay", err)
	}
}

// TestWorkerReuseAcrossPacketTypes ensures one worker's scratch state does
// not leak between differently typed packets.
func TestWorkerReuseAcrossPacketTypes(t *testing.T) {
	n := newTestnet(t, nil)
	w := n.routers[1].NewWorker()

	data := n.buildPacket(t, []byte("d"), baseNs)
	packet.SetCurrHopInPlace(data, 1)

	// Interleave data packets with control packets and garbage.
	for i := 0; i < 50; i++ {
		if _, err := w.Process(data, baseNs); err != nil {
			t.Fatalf("iteration %d data: %v", i, err)
		}
		// CurrHop was advanced in place; reset for the next round.
		packet.SetCurrHopInPlace(data, 1)
		if _, err := w.Process([]byte{9, 9, 9}, baseNs); err == nil {
			t.Fatal("garbage accepted")
		}
	}
}
