package cserv

import (
	"fmt"
	"testing"

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

// TestTransferSplitExpiryRelease lets a fleet of EERs expire without renewal
// and re-establishes the same load: CPlane.Tick must report the expired
// transfer-hop records so the service returns their split charges, or the
// dead demand blocks re-admission forever (the storm's crash-recovery
// failure mode, in miniature).
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
	// records and, via the expiry hook, their transfer-split charges.
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
