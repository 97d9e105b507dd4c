package gateway

import (
	"errors"
	"sync"
	"testing"

	"colibri/internal/packet"
)

// TestBuildBatchMixed: a batch mixing valid, unknown, expired, and
// undersized-buffer requests must fail exactly the bad slots, succeed the
// good ones, and report the success count.
func TestBuildBatchMixed(t *testing.T) {
	g := New(srcAS)
	if err := g.Install(testRes(7, 8000), packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	shortLived := testRes(8, 8000)
	shortLived.ExpT = uint32(baseNs/1e9) + 1
	if err := g.Install(shortLived, packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	nowNs := baseNs + 2*int64(1e9) // res 8 expired, res 7 still valid

	mk := func(n int) []byte { return make([]byte, n) }
	reqs := []BuildReq{
		{ResID: 7, Payload: []byte("a"), Out: mk(2048)},
		{ResID: 99, Out: mk(2048)},                   // unknown
		{ResID: 7, Payload: []byte("b"), Out: mk(4)}, // buffer too small
		{ResID: 8, Out: mk(2048)},                    // expired
		{ResID: 7, Payload: []byte("c"), Out: mk(2048)},
	}
	outs := make([]BuildRes, len(reqs))
	w := g.NewWorker()
	if n := w.BuildBatch(reqs, outs, nowNs); n != 2 {
		t.Fatalf("BuildBatch returned %d successes, want 2", n)
	}
	wantErrs := []error{nil, ErrUnknownRes, ErrBufTooSmall, ErrExpired, nil}
	for i, want := range wantErrs {
		if want == nil {
			if outs[i].Err != nil {
				t.Errorf("slot %d: unexpected error %v", i, outs[i].Err)
				continue
			}
			var pkt packet.Packet
			if _, err := pkt.DecodeFromBytes(reqs[i].Out[:outs[i].N]); err != nil {
				t.Errorf("slot %d: undecodable packet: %v", i, err)
			}
		} else if !errors.Is(outs[i].Err, want) {
			t.Errorf("slot %d: err = %v, want %v", i, outs[i].Err, want)
		}
	}
}

// TestBatchTimestampUniqueness: two workers building batches concurrently
// against the same gateway at the same nominal time must never emit two
// packets with the same timestamp — the batched Ts reservation takes one
// atomic slot-range per batch, and ranges must not overlap (run with
// -race).
func TestBatchTimestampUniqueness(t *testing.T) {
	const workers, rounds, batch = 2, 200, 16
	g := New(srcAS)
	if err := g.Install(testRes(7, 1<<30), packet.EERInfo{}, tPath, tAuths); err != nil {
		t.Fatal(err)
	}
	tsCh := make(chan []uint64, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := g.NewWorker()
			reqs := make([]BuildReq, batch)
			outs := make([]BuildRes, batch)
			for i := range reqs {
				reqs[i] = BuildReq{ResID: 7, Out: make([]byte, 2048)}
			}
			seen := make([]uint64, 0, rounds*batch)
			var pkt packet.Packet
			for r := 0; r < rounds; r++ {
				// Same nominal time every round: uniqueness must come
				// from the reservation scheme, not the clock.
				if n := w.BuildBatch(reqs, outs, baseNs); n != batch {
					t.Errorf("built %d/%d: %v", n, batch, outs[0].Err)
					return
				}
				for i := range outs {
					if _, err := pkt.DecodeFromBytes(reqs[i].Out[:outs[i].N]); err != nil {
						t.Errorf("undecodable packet: %v", err)
						return
					}
					seen = append(seen, pkt.Ts)
				}
			}
			tsCh <- seen
		}()
	}
	wg.Wait()
	close(tsCh)
	all := make(map[uint64]struct{})
	for seen := range tsCh {
		for _, ts := range seen {
			if _, dup := all[ts]; dup {
				t.Fatalf("duplicate timestamp %d across concurrent batches", ts)
			}
			all[ts] = struct{}{}
		}
	}
	if len(all) != workers*rounds*batch {
		t.Fatalf("collected %d timestamps, want %d", len(all), workers*rounds*batch)
	}
}
