package monitor

import (
	"math/rand"
	"testing"

	"colibri/internal/reservation"
)

// Allow is AllowBatch for one packet (the gateway's path has no use for it).
func (m *FlowMonitor) Allow(id reservation.ID, rateKbps uint64, sizeBytes uint32, nowNs int64) bool {
	var ok [1]bool
	m.AllowBatch([]reservation.ID{id}, []uint64{rateKbps}, []uint32{sizeBytes}, nowNs, ok[:])
	return ok[0]
}

// TestAllowBatchMatchesSequential: AllowBatch over random batches — mixed
// flows, rate updates, holes, and repeated IDs within one batch — must
// reach exactly the per-packet decisions of sequential Allow calls on an
// identically driven monitor.
func TestAllowBatchMatchesSequential(t *testing.T) {
	const flows, rounds, batch = 8, 500, 16
	rng := rand.New(rand.NewSource(3))
	mb := NewFlowMonitor()
	ms := NewFlowMonitor()

	rateSet := []uint64{64, 1000, 8000} // small set so SetRate triggers often
	ids := make([]reservation.ID, batch)
	rates := make([]uint64, batch)
	sizes := make([]uint32, batch)
	got := make([]bool, batch)
	nowNs := int64(1_000_000)
	holes, denials := 0, 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < batch; i++ {
			ids[i] = rid(uint32(1 + rng.Intn(flows))) // few flows → repeats within a batch
			rates[i] = rateSet[rng.Intn(len(rateSet))]
			if rng.Intn(8) == 0 {
				sizes[i] = 0 // hole: no packet in this slot
			} else {
				sizes[i] = uint32(1 + rng.Intn(3000))
			}
		}
		mb.AllowBatch(ids, rates, sizes, nowNs, got)
		for i := 0; i < batch; i++ {
			if sizes[i] == 0 {
				holes++
				if got[i] {
					t.Fatalf("round %d slot %d: hole reported as allowed", r, i)
				}
				continue
			}
			want := ms.Allow(ids[i], rates[i], sizes[i], nowNs)
			if got[i] != want {
				t.Fatalf("round %d slot %d: batch %v, sequential %v (id=%v rate=%d size=%d)",
					r, i, got[i], want, ids[i], rates[i], sizes[i])
			}
			if !want {
				denials++
			}
		}
		// Advance unevenly so some rounds refill and some share an instant.
		if rng.Intn(3) > 0 {
			nowNs += int64(rng.Intn(5_000_000))
		}
	}
	if holes == 0 || denials == 0 {
		t.Errorf("fixture too tame: holes=%d denials=%d", holes, denials)
	}
	if mb.Len() != ms.Len() {
		t.Errorf("flow maps diverged: batch %d, sequential %d", mb.Len(), ms.Len())
	}
}
