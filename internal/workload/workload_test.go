package workload

import (
	"math/rand"
	"testing"

	"colibri/internal/packet"
	"colibri/internal/topology"
)

func TestTransitAS(t *testing.T) {
	as, st := TransitAS(4, 100_000)
	if len(as.Interfaces) != 4 {
		t.Fatalf("interfaces = %d", len(as.Interfaces))
	}
	if st == nil || st.Len() != 0 {
		t.Fatal("admission state not fresh")
	}
}

func TestPopulateSegRsRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, st := TransitAS(2, 1<<40)
	src := topology.MustIA(1, 500)
	if err := PopulateSegRs(st, 1000, 0.5, src, 1, 2, rng); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1000 {
		t.Errorf("admitted %d", st.Len())
	}
}

func TestEERPopulation(t *testing.T) {
	cp, segID, err := EERPopulation(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ct := cp.Counts(); ct.SegRs != 5 || ct.EERs != 100 || ct.Rejects != 0 {
		t.Errorf("counts: %+v, want 5 SegRs, 100 EERs, nothing refused", ct)
	}
	if demand, ok := cp.SegDemandMax(segID); !ok || demand != 100 {
		t.Errorf("demand on the first SegR = %d (known %v), want 100", demand, ok)
	}
}

// TestGatewayPopulationInterop is the load-bearing check: packets built by
// the populated gateway must validate at every populated router.
func TestGatewayPopulationInterop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gw, routers := GatewayPopulation(64, 5, rng)
	if gw.Len() != 64 || len(routers) != 5 {
		t.Fatalf("population: %d reservations, %d routers", gw.Len(), len(routers))
	}
	w := gw.NewWorker()
	buf := make([]byte, 512)
	for id := uint32(1); id <= 64; id++ {
		sz, err := w.Build(id, []byte("x"), buf, EpochNs+int64(id))
		if err != nil {
			t.Fatal(err)
		}
		pkt := buf[:sz]
		for hop, rt := range routers {
			packet.SetCurrHopInPlace(pkt, uint8(hop))
			if _, err := rt.NewWorker().Process(pkt, EpochNs); err != nil {
				t.Fatalf("reservation %d hop %d: %v", id, hop, err)
			}
		}
	}
}

func TestRandomResIDsInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := RandomResIDs(10_000, 64, rng)
	if len(ids) != 10_000 {
		t.Fatalf("len = %d", len(ids))
	}
	seen := make(map[uint32]bool)
	for _, id := range ids {
		if id < 1 || id > 64 {
			t.Fatalf("id %d out of range", id)
		}
		seen[id] = true
	}
	if len(seen) != 64 {
		t.Errorf("only %d distinct IDs drawn", len(seen))
	}
}
