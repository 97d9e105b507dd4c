package segment

import (
	"fmt"

	"colibri/internal/topology"
)

// SrcIA returns the first AS of the path.
func (p *Path) SrcIA() topology.IA { return p.Hops[0].IA }

// DstIA returns the last AS of the path.
func (p *Path) DstIA() topology.IA { return p.Hops[len(p.Hops)-1].IA }

// VerifyAgainst checks that every hop's interfaces exist in the topology and
// consecutive hops are actually connected. It guards against corrupted or
// forged paths entering the control plane.
func (p *Path) VerifyAgainst(topo *topology.Topology) error {
	for i, h := range p.Hops {
		as := topo.AS(h.IA)
		if as == nil {
			return fmt.Errorf("segment: unknown AS %s", h.IA)
		}
		if h.In != 0 && as.Interface(h.In) == nil {
			return fmt.Errorf("segment: AS %s has no interface %d", h.IA, h.In)
		}
		if h.Eg != 0 {
			intf := as.Interface(h.Eg)
			if intf == nil {
				return fmt.Errorf("segment: AS %s has no interface %d", h.IA, h.Eg)
			}
			if i == len(p.Hops)-1 {
				return fmt.Errorf("segment: last hop has egress %d", h.Eg)
			}
			next := p.Hops[i+1]
			if intf.Neighbor != next.IA || intf.NeighborIf != next.In {
				return fmt.Errorf("segment: hop %d egress does not lead to hop %d", i, i+1)
			}
		}
	}
	return nil
}
