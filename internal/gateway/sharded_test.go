package gateway

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"colibri/internal/packet"
	"colibri/internal/telemetry"
)

// installFleet installs nRes reservations (IDs 1..nRes) on both gateways.
// Rates are mixed so some flows hit ErrRateExceeded under pressure.
func installFleet(t *testing.T, single *Gateway, sharded *Sharded, nRes int) {
	t.Helper()
	for i := 1; i <= nRes; i++ {
		rate := uint32(8000)
		if i%5 == 0 {
			rate = 100 // tight: overused under the test workload
		}
		res := testRes(uint32(i), rate)
		if i%7 == 0 {
			res.ExpT = uint32(baseNs/1e9) + 1 // expires mid-test
		}
		if err := single.Install(res, packet.EERInfo{}, tPath, tAuths); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Install(res, packet.EERInfo{}, tPath, tAuths); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedGatewayDifferential: for the same request stream, the sharded
// gateway must reproduce a single gateway's per-slot outcomes (N, Err)
// exactly — success/failure, error kind, and serialized length — across
// every worker count. Payload bytes must match too; only the Ts field may
// differ (per-shard counters), so it is masked before comparison.
func TestShardedGatewayDifferential(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			single := New(srcAS)
			sh := NewSharded(srcAS, 8, workers)
			const nRes = 40
			installFleet(t, single, sh, nRes)
			w := single.NewWorker()

			rng := rand.New(rand.NewSource(seed))
			const batches, batchSz = 30, 64
			nowNs := baseNs
			reqsA := make([]BuildReq, batchSz)
			reqsB := make([]BuildReq, batchSz)
			outsA := make([]BuildRes, batchSz)
			outsB := make([]BuildRes, batchSz)
			for i := range reqsA {
				reqsA[i].Out = make([]byte, 2048)
				reqsB[i].Out = make([]byte, 2048)
			}
			for b := 0; b < batches; b++ {
				nowNs += int64(50+rng.Intn(200)) * 1e6
				for i := range reqsA {
					resID := uint32(1 + rng.Intn(nRes+4)) // some unknown IDs
					payload := make([]byte, 100+rng.Intn(900))
					rng.Read(payload)
					short := rng.Intn(40) == 0
					reqsA[i].ResID, reqsB[i].ResID = resID, resID
					reqsA[i].Payload, reqsB[i].Payload = payload, payload
					if short {
						reqsA[i].Out = reqsA[i].Out[:8]
						reqsB[i].Out = reqsB[i].Out[:8]
					} else {
						reqsA[i].Out = reqsA[i].Out[:cap(reqsA[i].Out)]
						reqsB[i].Out = reqsB[i].Out[:cap(reqsB[i].Out)]
					}
				}
				nA := w.BuildBatch(reqsA, outsA, nowNs)
				nB := sh.BuildBatch(reqsB, outsB, nowNs)
				if nA != nB {
					t.Fatalf("workers=%d seed=%d batch %d: built %d (single) vs %d (sharded)", workers, seed, b, nA, nB)
				}
				for i := range outsA {
					if outsA[i].N != outsB[i].N || !errors.Is(outsB[i].Err, outsA[i].Err) {
						t.Fatalf("workers=%d seed=%d batch %d slot %d: (N=%d err=%v) vs (N=%d err=%v)",
							workers, seed, b, i, outsA[i].N, outsA[i].Err, outsB[i].N, outsB[i].Err)
					}
					if outsA[i].Err != nil {
						continue
					}
					bufA := append([]byte(nil), reqsA[i].Out[:outsA[i].N]...)
					bufB := append([]byte(nil), reqsB[i].Out[:outsB[i].N]...)
					// Mask what legitimately differs: Ts (per-shard counters
					// allocate different slots) and the Ts-keyed HVFs.
					maskTsAndHVFs(bufA)
					maskTsAndHVFs(bufB)
					if !bytes.Equal(bufA, bufB) {
						t.Fatalf("workers=%d seed=%d batch %d slot %d: packet bytes differ outside Ts/HVFs", workers, seed, b, i)
					}
				}
			}
			sh.Close()
		}
	}
}

// maskTsAndHVFs zeroes the timestamp and every hop's HVF in a serialized
// packet, the only fields allowed to differ between single and sharded
// builds. After DecodeFromBytes the HVFs slice aliases buf, so zeroing it
// zeroes the serialized bytes in place; Ts lives at offset 40:48.
func maskTsAndHVFs(buf []byte) {
	var pkt packet.Packet
	if _, err := pkt.DecodeFromBytes(buf); err != nil {
		panic(err)
	}
	binary.BigEndian.PutUint64(buf[40:48], 0)
	for i := range pkt.HVFs {
		pkt.HVFs[i] = 0
	}
}

// TestShardedGatewayControlRace drives BuildBatch while Install (renewal),
// Remove, Demote/Promote, Len, and telemetry snapshots run concurrently from
// another goroutine — under -race this proves the build path shares no
// unsynchronized state with the control-plane entry points (the static
// shardown invariant, cross-checked dynamically), and every slot's
// outcome must still be well-formed.
func TestShardedGatewayControlRace(t *testing.T) {
	sh := NewSharded(srcAS, 4, 4)
	defer sh.Close()
	reg := telemetry.NewRegistry("gw-race")
	sh.EnableTelemetry(reg)
	const nRes = 32
	for i := 1; i <= nRes; i++ {
		if err := sh.Install(testRes(uint32(i), 8000), packet.EERInfo{}, tPath, tAuths); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctl := rand.New(rand.NewSource(11))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := uint32(1 + ctl.Intn(nRes))
			switch ctl.Intn(4) {
			case 0:
				sh.Remove(id)
			case 1:
				sh.Demote(id)
			case 2:
				sh.Promote(id)
			}
			if err := sh.Install(testRes(id, 8000), packet.EERInfo{}, tPath, tAuths); err != nil {
				t.Error(err)
				return
			}
			sh.Len()
			reg.Snapshot()
		}
	}()

	rng := rand.New(rand.NewSource(7))
	const batches, batchSz = 40, 64
	reqs := make([]BuildReq, batchSz)
	outs := make([]BuildRes, batchSz)
	for i := range reqs {
		reqs[i].Out = make([]byte, 2048)
	}
	nowNs := baseNs
	for b := 0; b < batches; b++ {
		nowNs += int64(10+rng.Intn(50)) * 1e6
		for i := range reqs {
			reqs[i].ResID = uint32(1 + rng.Intn(nRes))
			payload := make([]byte, 64+rng.Intn(256))
			rng.Read(payload)
			reqs[i].Payload = payload
			reqs[i].Out = reqs[i].Out[:cap(reqs[i].Out)]
		}
		built := sh.BuildBatch(reqs, outs, nowNs)
		if built < 0 || built > batchSz {
			t.Fatalf("batch %d: built %d out of range", b, built)
		}
		for i := range outs {
			switch err := outs[i].Err; {
			case err == nil && outs[i].N == 0:
				t.Fatalf("batch %d slot %d: zero-length success", b, i)
			case err != nil && !errors.Is(err, ErrUnknownRes) && !errors.Is(err, ErrDemoted) && !errors.Is(err, ErrRateExceeded):
				t.Fatalf("batch %d slot %d: %v", b, i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardedGatewayTsMonotonePerRes: per reservation, timestamps must be
// strictly increasing across batches even though each shard keeps its own
// lastTs — a reservation never spans shards, so shard-local uniqueness is
// global uniqueness.
func TestShardedGatewayTsMonotonePerRes(t *testing.T) {
	sh := NewSharded(srcAS, 4, 4)
	defer sh.Close()
	const nRes = 9
	for i := 1; i <= nRes; i++ {
		if err := sh.Install(testRes(uint32(i), 1<<30), packet.EERInfo{}, tPath, tAuths); err != nil {
			t.Fatal(err)
		}
	}
	lastTs := map[uint32]uint64{}
	reqs := make([]BuildReq, 27)
	outs := make([]BuildRes, len(reqs))
	for i := range reqs {
		reqs[i] = BuildReq{ResID: uint32(1 + i%nRes), Out: make([]byte, 2048)}
	}
	for b := 0; b < 50; b++ {
		nowNs := baseNs + int64(b)*1e6
		sh.BuildBatch(reqs, outs, nowNs)
		for i := range outs {
			if outs[i].Err != nil {
				t.Fatalf("batch %d slot %d: %v", b, i, outs[i].Err)
			}
			var pkt packet.Packet
			if _, err := pkt.DecodeFromBytes(reqs[i].Out[:outs[i].N]); err != nil {
				t.Fatal(err)
			}
			if prev, ok := lastTs[pkt.Res.ResID]; ok && pkt.Ts <= prev {
				t.Fatalf("res %d: Ts %d not after %d", pkt.Res.ResID, pkt.Ts, prev)
			}
			lastTs[pkt.Res.ResID] = pkt.Ts
		}
	}
}

// TestShardedGatewayPlacementAndLifecycle: control-plane calls must land on
// the owning shard, and Len/Expire must aggregate across shards.
func TestShardedGatewayPlacementAndLifecycle(t *testing.T) {
	sh := NewSharded(srcAS, 8, 2)
	defer sh.Close()
	for i := 1; i <= 32; i++ {
		res := testRes(uint32(i), 8000)
		if i%4 == 0 {
			res.ExpT = uint32(baseNs/1e9) + 1
		}
		if err := sh.Install(res, packet.EERInfo{}, tPath, tAuths); err != nil {
			t.Fatal(err)
		}
	}
	if got := sh.Len(); got != 32 {
		t.Fatalf("Len=%d, want 32", got)
	}
	if !sh.Demote(3) || !sh.Demoted(3) {
		t.Error("Demote(3) did not stick")
	}
	if !sh.Promote(3) || sh.Demoted(3) {
		t.Error("Promote(3) did not clear the demotion")
	}
	sh.Remove(5)
	if got := sh.Len(); got != 31 {
		t.Fatalf("Len after Remove=%d, want 31", got)
	}
	if dropped := sh.Expire(uint32(baseNs/1e9) + 10); dropped != 8 {
		t.Fatalf("Expire dropped %d, want 8", dropped)
	}
	if got := sh.Len(); got != 23 {
		t.Fatalf("Len after Expire=%d, want 23", got)
	}
}

// TestShardedGatewayTelemetry: shards sharing one registry must sum into the
// single gateway's series names (delta-maintained resident gauge, shared
// outcome counters).
func TestShardedGatewayTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry("gw")
	sh := NewSharded(srcAS, 4, 2)
	defer sh.Close()
	sh.EnableTelemetry(reg)
	const nRes = 16
	for i := 1; i <= nRes; i++ {
		if err := sh.Install(testRes(uint32(i), 1<<30), packet.EERInfo{}, tPath, tAuths); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Gauge("gateway.reservations").Value(); got != nRes {
		t.Fatalf("resident gauge %d, want %d (shards must sum, not overwrite)", got, nRes)
	}
	sh.Remove(2)
	if got := reg.Gauge("gateway.reservations").Value(); got != nRes-1 {
		t.Fatalf("resident gauge after Remove %d, want %d", got, nRes-1)
	}
	reqs := make([]BuildReq, 32)
	outs := make([]BuildRes, len(reqs))
	for i := range reqs {
		reqs[i] = BuildReq{ResID: uint32(1 + i%8), Out: make([]byte, 2048)} // res 2 is gone: 4 rejects per batch
	}
	const batches = 4
	for b := 0; b < batches; b++ {
		sh.BuildBatch(reqs, outs, baseNs+int64(b)*1e6)
	}
	if got := reg.Counter("gateway.built").Value(); got != batches*28 {
		t.Fatalf("gateway.built=%d, want %d", got, batches*28)
	}
	if got := reg.Counter("gateway.rejected").Value(); got != batches*4 {
		t.Fatalf("gateway.rejected=%d, want %d", got, batches*4)
	}
}
