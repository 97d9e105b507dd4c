// Package segment implements SCION-style path discovery and combination on
// top of the topology substrate: beaconing of up-, down-, and core-segments,
// a registry to look them up, and joining of segments into end-to-end paths.
//
// Colibri's scalability rests on this decomposition (§2.2, §3.3 of the
// paper): segment reservations are made per path segment, never per
// end-to-end path, which bounds their number. The discovery here is a
// centralized fixpoint computation equivalent to SCION's distributed beacon
// propagation; the resulting segment sets are the same.
package segment

import (
	"fmt"
	"sort"
	"strings"

	"colibri/internal/topology"
)

// Type is the segment type, mirroring the three SegR types of §3.3.
type Type uint8

const (
	// Up runs from a non-core AS towards a core AS inside one ISD.
	Up Type = iota
	// Down runs from a core AS towards a non-core AS inside one ISD.
	Down
	// Core runs between core ASes, possibly across ISDs.
	Core
)

func (t Type) String() string {
	switch t {
	case Up:
		return "up"
	case Down:
		return "down"
	case Core:
		return "core"
	default:
		return fmt.Sprintf("segtype(%d)", uint8(t))
	}
}

// Hop is one AS on a segment or path, with the ingress and egress interface
// in traversal direction. In = 0 marks the first AS, Eg = 0 the last.
type Hop struct {
	IA     topology.IA
	In, Eg topology.IfID
}

func (h Hop) String() string {
	return fmt.Sprintf("%d>%s>%d", h.In, h.IA, h.Eg)
}

// Segment is a traversal-ordered sequence of hops of one segment type.
type Segment struct {
	Type Type
	Hops []Hop
}

// SrcIA returns the first AS of the segment.
func (s *Segment) SrcIA() topology.IA { return s.Hops[0].IA }

// DstIA returns the last AS of the segment.
func (s *Segment) DstIA() topology.IA { return s.Hops[len(s.Hops)-1].IA }

// Len returns the number of ASes on the segment.
func (s *Segment) Len() int { return len(s.Hops) }

func (s *Segment) String() string {
	parts := make([]string, len(s.Hops))
	for i, h := range s.Hops {
		parts[i] = h.String()
	}
	return fmt.Sprintf("[%s: %s]", s.Type, strings.Join(parts, " "))
}

// Reversed returns a copy of the segment traversed in the opposite direction
// with the given type (an up-segment reversed is a down-segment and vice
// versa).
func (s *Segment) Reversed(typ Type) *Segment {
	hops := make([]Hop, len(s.Hops))
	for i, h := range s.Hops {
		hops[len(s.Hops)-1-i] = Hop{IA: h.IA, In: h.Eg, Eg: h.In}
	}
	return &Segment{Type: typ, Hops: hops}
}

// Fingerprint returns a string uniquely identifying the hop sequence,
// suitable as a map key.
func (s *Segment) Fingerprint() string {
	var b strings.Builder
	for _, h := range s.Hops {
		fmt.Fprintf(&b, "%x.%x.%x;", uint64(h.IA), h.In, h.Eg)
	}
	return b.String()
}

// Path is a full end-to-end AS-level path.
type Path struct {
	Hops []Hop
	// Segments records which discovered segments were joined, in order.
	// Empty for paths built directly (e.g., intra-AS).
	Segments []*Segment
}

// Len returns the number of on-path ASes.
func (p *Path) Len() int { return len(p.Hops) }

func (p *Path) String() string {
	parts := make([]string, len(p.Hops))
	for i, h := range p.Hops {
		parts[i] = h.String()
	}
	return strings.Join(parts, " ")
}

// Join combines consecutive segments into an end-to-end path. Adjacent
// segments must meet at a common AS (the transfer AS, §4.1); its merged hop
// takes the ingress of the earlier segment's last hop and the egress of the
// later segment's first hop. Valid combinations follow SCION's rules: at
// most one up-, one core-, and one down-segment, in that order.
func Join(segs ...*Segment) (*Path, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("segment: Join needs at least one segment")
	}
	if len(segs) > 3 {
		return nil, fmt.Errorf("segment: at most 3 segments can be joined, got %d", len(segs))
	}
	if err := validOrder(segs); err != nil {
		return nil, err
	}
	p := &Path{Segments: segs}
	p.Hops = append(p.Hops, segs[0].Hops...)
	for i := 1; i < len(segs); i++ {
		next := segs[i]
		lastIdx := len(p.Hops) - 1
		if p.Hops[lastIdx].IA != next.SrcIA() {
			return nil, fmt.Errorf("segment: segments do not meet: %s vs %s",
				p.Hops[lastIdx].IA, next.SrcIA())
		}
		// Merge the junction hop.
		p.Hops[lastIdx].Eg = next.Hops[0].Eg
		p.Hops = append(p.Hops, next.Hops[1:]...)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// validOrder enforces the up[,core][,down] composition rule.
func validOrder(segs []*Segment) error {
	rank := func(t Type) int {
		switch t {
		case Up:
			return 0
		case Core:
			return 1
		case Down:
			return 2
		}
		return 3
	}
	prev := -1
	for _, s := range segs {
		r := rank(s.Type)
		if r <= prev {
			return fmt.Errorf("segment: invalid combination order (%v)", types(segs))
		}
		prev = r
	}
	return nil
}

func types(segs []*Segment) []Type {
	out := make([]Type, len(segs))
	for i, s := range segs {
		out[i] = s.Type
	}
	return out
}

// validate checks the path is internally consistent: In=0 only at the start,
// Eg=0 only at the end, no repeated AS (loop freedom).
func (p *Path) validate() error {
	seen := make(map[topology.IA]bool, len(p.Hops))
	for i, h := range p.Hops {
		if seen[h.IA] {
			return fmt.Errorf("segment: path visits AS %s twice", h.IA)
		}
		seen[h.IA] = true
		if (h.In == 0) != (i == 0) {
			return fmt.Errorf("segment: hop %d has In=%d", i, h.In)
		}
		if (h.Eg == 0) != (i == len(p.Hops)-1) {
			return fmt.Errorf("segment: hop %d has Eg=%d", i, h.Eg)
		}
	}
	return nil
}

// MinCapacityKbps returns the smallest link capacity along the path (the
// physical upper bound for any reservation over it).
func (p *Path) MinCapacityKbps(topo *topology.Topology) uint64 {
	minCap := uint64(0)
	for _, h := range p.Hops {
		if h.Eg == 0 {
			continue
		}
		c := topo.AS(h.IA).Interface(h.Eg).CapacityKbps()
		if minCap == 0 || c < minCap {
			minCap = c
		}
	}
	return minCap
}

// sortSegments orders segments by length then fingerprint for determinism.
func sortSegments(segs []*Segment) {
	sort.Slice(segs, func(i, j int) bool {
		if len(segs[i].Hops) != len(segs[j].Hops) {
			return len(segs[i].Hops) < len(segs[j].Hops)
		}
		return segs[i].Fingerprint() < segs[j].Fingerprint()
	})
}
