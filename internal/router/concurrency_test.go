package router

import (
	"strings"
	"sync"
	"testing"

	"colibri/internal/ofd"
	"colibri/internal/packet"
	"colibri/internal/replay"
)

// TestConcurrentWorkersFullStack drives a router with the complete
// protection stack (replay suppression + OFD + blocklist) from several
// worker goroutines at once (run with -race). Each worker processes its own
// distinct packet stream.
func TestConcurrentWorkersFullStack(t *testing.T) {
	n := newTestnet(t, func(i int, cfg *Config) {
		if i == 1 {
			cfg.Replay = &replay.Config{}
			cfg.OFD = ofd.New(ofd.Config{})
		}
	})
	rt := n.routers[1]

	// Pre-build per-worker packet streams with distinct timestamps.
	const workers = 4
	const perWorker = 2000
	streams := make([][][]byte, workers)
	for w := range streams {
		streams[w] = make([][]byte, perWorker)
		for i := range streams[w] {
			ts := uint64(baseNs + int64(w*perWorker+i)*1000)
			buf := buildRaw(t, n, 300, ts, 1)
			streams[w][i] = buf
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := rt.NewWorker()
			for i, buf := range streams[w] {
				_, err := worker.Process(buf, baseNs+int64(w*perWorker+i)*1000)
				if err != nil && !strings.Contains(err.Error(), "overuse") &&
					!strings.Contains(err.Error(), "blocklist") {
					// Overuse/blocklist outcomes are legitimate under the
					// aggregate load; anything else is a bug.
					t.Errorf("worker %d packet %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Replaying any already-seen packet is still caught afterwards.
	if _, err := rt.NewWorker().Process(streams[0][0], baseNs+1e6); err == nil {
		t.Error("replay accepted after concurrent run")
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
