package core

import (
	"strings"
	"testing"

	"colibri/internal/topology"
)

// TestMeshZeroGrantReported: the mesh asks for every SegR with a minimum of 0,
// so a demand the links cannot carry is legally "granted" at 0 kbps — and used
// to be reported as success, leaving the first EER setup to fail with "has 0
// kbps free". At 30 Gbps on TwoISD one shard grants 1-11's two up-SegRs
// nothing; at eight shards every SegR is capped at an eighth of its links
// before the demands meet, and none ends up empty.
func TestMeshZeroGrantReported(t *testing.T) {
	const bwKbps = 30_000_000
	mesh := func(shards int) (*Network, error) {
		net, err := NewNetwork(topology.TwoISD(topology.LinkSpec{}), Options{CPlaneShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return net, net.AutoSetupSegRs(bwKbps)
	}
	net, err := mesh(1)
	if err == nil {
		t.Fatal("a mesh with SegRs of 0 kbps was reported as success")
	}
	var zero, named int
	for _, iaKey := range net.Topo.SortedIAs() {
		for _, sr := range net.Node(iaKey).CServ.Store().InitiatedSegRs() {
			isZero := sr.Active.BwKbps == 0
			isNamed := strings.Contains(err.Error(), "SegR "+sr.ID.String()+" ")
			if isZero != isNamed {
				t.Errorf("SegR %s of %s: granted %d kbps, named in the error: %v", sr.ID, iaKey, sr.Active.BwKbps, isNamed)
			}
			if isZero {
				zero++
			}
			if isNamed && iaKey == ia(1, 11) && strings.Contains(err.Error(), "up-segment 1-11") {
				named++
			}
		}
	}
	if zero == 0 || named != 2 {
		t.Errorf("%d SegRs granted 0 kbps, %d up-SegRs of 1-11 named, want both of them:\n%v", zero, named, err)
	}

	net, err = mesh(8)
	if err != nil {
		t.Fatalf("8 shards: %v", err)
	}
	for _, iaKey := range net.Topo.SortedIAs() {
		for _, sr := range net.Node(iaKey).CServ.Store().InitiatedSegRs() {
			if sr.Active.BwKbps == 0 {
				t.Errorf("8 shards: SegR %s of %s granted 0 kbps", sr.ID, iaKey)
			}
		}
	}
}
