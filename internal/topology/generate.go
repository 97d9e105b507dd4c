package topology

import (
	"fmt"
	"math/rand"
)

// GenSpec parameterizes the Internet-like hierarchical generator.
type GenSpec struct {
	// ISDs is the number of isolation domains (≥1).
	ISDs int
	// CoresPerISD is the number of core ASes per ISD (≥1). Cores within an
	// ISD form a full mesh; across ISDs, each core connects to Rand cores of
	// every other ISD (at least one).
	CoresPerISD int
	// ProvidersPerISD is the number of mid-tier (transit) ASes per ISD.
	// Each attaches to ProviderUplinks core ASes of its ISD.
	ProvidersPerISD int
	// LeavesPerISD is the number of leaf ASes per ISD. Each attaches to
	// LeafUplinks providers (or cores if there are no providers).
	LeavesPerISD int
	// ProviderUplinks and LeafUplinks control multihoming degree (≥1).
	ProviderUplinks int
	LeafUplinks     int
	// CoreLinkKbps, TransitLinkKbps, AccessLinkKbps set link capacities;
	// zero values use defaults (100G / 40G / 10G).
	CoreLinkKbps    uint64
	TransitLinkKbps uint64
	AccessLinkKbps  uint64
	// Seed makes the generated wiring deterministic.
	Seed int64
}

// Defaults used by Generate for zero fields.
const (
	defaultCoreLinkKbps    = 100_000_000
	defaultTransitLinkKbps = 40_000_000
	defaultAccessLinkKbps  = 10_000_000
)

func (s *GenSpec) setDefaults() {
	if s.ISDs == 0 {
		s.ISDs = 1
	}
	if s.CoresPerISD == 0 {
		s.CoresPerISD = 1
	}
	if s.ProviderUplinks == 0 {
		s.ProviderUplinks = 1
	}
	if s.LeafUplinks == 0 {
		s.LeafUplinks = 1
	}
	if s.CoreLinkKbps == 0 {
		s.CoreLinkKbps = defaultCoreLinkKbps
	}
	if s.TransitLinkKbps == 0 {
		s.TransitLinkKbps = defaultTransitLinkKbps
	}
	if s.AccessLinkKbps == 0 {
		s.AccessLinkKbps = defaultAccessLinkKbps
	}
}

// nextIf hands out fresh interface IDs per AS.
type ifAlloc map[IA]IfID

func (a ifAlloc) next(ia IA) IfID {
	a[ia]++
	return a[ia]
}

// Generate builds a hierarchical Internet-like topology: per ISD a core mesh,
// a transit tier, and leaf ASes; ISD cores are interconnected. AS numbering:
// cores are 1..C, providers C+1..C+P, leaves C+P+1.. within each ISD.
func Generate(spec GenSpec) *Topology {
	spec.setDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	t := New()
	alloc := make(ifAlloc)

	cores := make([][]IA, spec.ISDs)
	providers := make([][]IA, spec.ISDs)
	for i := 0; i < spec.ISDs; i++ {
		isd := ISD(i + 1)
		next := ASID(1)
		for c := 0; c < spec.CoresPerISD; c++ {
			ia := MustIA(isd, next)
			next++
			t.AddAS(ia, true)
			cores[i] = append(cores[i], ia)
		}
		for p := 0; p < spec.ProvidersPerISD; p++ {
			ia := MustIA(isd, next)
			next++
			t.AddAS(ia, false)
			providers[i] = append(providers[i], ia)
		}
		for l := 0; l < spec.LeavesPerISD; l++ {
			ia := MustIA(isd, next)
			next++
			t.AddAS(ia, false)
		}
	}

	coreSpec := LinkSpec{CapacityKbps: spec.CoreLinkKbps, LatencyNs: 5e6}
	transitSpec := LinkSpec{CapacityKbps: spec.TransitLinkKbps, LatencyNs: 2e6}
	accessSpec := LinkSpec{CapacityKbps: spec.AccessLinkKbps, LatencyNs: 1e6}

	// Intra-ISD core mesh.
	for i := range cores {
		cs := cores[i]
		for x := 0; x < len(cs); x++ {
			for y := x + 1; y < len(cs); y++ {
				t.MustConnect(cs[x], alloc.next(cs[x]), cs[y], alloc.next(cs[y]), LinkCore, coreSpec)
			}
		}
	}
	// Inter-ISD core links: connect core x of ISD i to core (x mod len) of
	// every other ISD, plus one random extra for diversity.
	for i := 0; i < spec.ISDs; i++ {
		for j := i + 1; j < spec.ISDs; j++ {
			for x, ca := range cores[i] {
				cb := cores[j][x%len(cores[j])]
				t.MustConnect(ca, alloc.next(ca), cb, alloc.next(cb), LinkCore, coreSpec)
			}
			if len(cores[i]) > 1 && len(cores[j]) > 1 {
				ca := cores[i][rng.Intn(len(cores[i]))]
				cb := cores[j][rng.Intn(len(cores[j]))]
				t.MustConnect(ca, alloc.next(ca), cb, alloc.next(cb), LinkCore, coreSpec)
			}
		}
	}
	// Providers under cores; leaves under providers (or cores).
	for i := 0; i < spec.ISDs; i++ {
		isd := ISD(i + 1)
		for p, prov := range providers[i] {
			for u := 0; u < spec.ProviderUplinks && u < len(cores[i]); u++ {
				core := cores[i][(p+u)%len(cores[i])]
				t.MustConnect(core, alloc.next(core), prov, alloc.next(prov), LinkParent, transitSpec)
			}
		}
		parents := providers[i]
		parentSpec := accessSpec
		if len(parents) == 0 {
			parents = cores[i]
			parentSpec = transitSpec
		}
		base := spec.CoresPerISD + spec.ProvidersPerISD
		for l := 0; l < spec.LeavesPerISD; l++ {
			leaf := MustIA(isd, ASID(base+l+1))
			for u := 0; u < spec.LeafUplinks && u < len(parents); u++ {
				par := parents[(l+u)%len(parents)]
				t.MustConnect(par, alloc.next(par), leaf, alloc.next(leaf), LinkParent, parentSpec)
			}
		}
	}
	return t
}

// Line builds a chain of n ASes 1-1 … 1-n, the first `coreCount` of which are
// core. Consecutive ASes are connected; core-core pairs by core links,
// otherwise provider-customer with the lower index as provider. Useful for
// path-length-controlled experiments (Figs. 5–6 use paths of 2–16 ASes).
func Line(n, coreCount int, spec LinkSpec) *Topology {
	if n < 1 {
		panic("topology: Line needs n >= 1")
	}
	if coreCount < 1 || coreCount > n {
		coreCount = 1
	}
	t := New()
	for i := 1; i <= n; i++ {
		t.AddAS(MustIA(1, ASID(i)), i <= coreCount)
	}
	alloc := make(ifAlloc)
	for i := 1; i < n; i++ {
		a, b := MustIA(1, ASID(i)), MustIA(1, ASID(i+1))
		typ := LinkParent
		if i+1 <= coreCount {
			typ = LinkCore
		}
		t.MustConnect(a, alloc.next(a), b, alloc.next(b), typ, spec)
	}
	return t
}

// Star builds one core AS (1-1) with n leaves (1-2 … 1-(n+1)) attached by
// provider-customer links.
//
//colibri:allow(testonly) — segment's TestUpDownShortcutSameISD builds its topology with it
func Star(n int, spec LinkSpec) *Topology {
	t := New()
	hub := MustIA(1, 1)
	t.AddAS(hub, true)
	alloc := make(ifAlloc)
	for i := 0; i < n; i++ {
		leaf := MustIA(1, ASID(i+2))
		t.AddAS(leaf, false)
		t.MustConnect(hub, alloc.next(hub), leaf, alloc.next(leaf), LinkParent, spec)
	}
	return t
}

// TwoISD builds the small fixed topology used throughout the tests and
// examples, mirroring Fig. 1 of the paper: source AS S (1-11) is a leaf
// multihomed under transit ASes X (1-2) and X' (1-3), both customers of the
// ISD-1 core Y (1-1); Y connects over an inter-ISD core link to W (2-1),
// whose customer is the destination AS Z (2-11).
//
//	          1-2 (X)
//	1-11 (S) <        > 1-1 (Y) — 2-1 (W) — 2-11 (Z)
//	          1-3 (X')
//
// S thus has two up-segments (via X and X'), giving real path choice.
func TwoISD(spec LinkSpec) *Topology {
	t := New()
	y := MustIA(1, 1)
	x := MustIA(1, 2)
	x2 := MustIA(1, 3)
	s := MustIA(1, 11)
	w := MustIA(2, 1)
	z := MustIA(2, 11)
	t.AddAS(y, true)
	t.AddAS(x, false)
	t.AddAS(x2, false)
	t.AddAS(s, false)
	t.AddAS(w, true)
	t.AddAS(z, false)
	alloc := make(ifAlloc)
	t.MustConnect(y, alloc.next(y), x, alloc.next(x), LinkParent, spec)
	t.MustConnect(y, alloc.next(y), x2, alloc.next(x2), LinkParent, spec)
	t.MustConnect(x, alloc.next(x), s, alloc.next(s), LinkParent, spec)
	t.MustConnect(x2, alloc.next(x2), s, alloc.next(s), LinkParent, spec)
	t.MustConnect(y, alloc.next(y), w, alloc.next(w), LinkCore, spec)
	t.MustConnect(w, alloc.next(w), z, alloc.next(z), LinkParent, spec)
	return t
}

// String renders a human-readable summary of the topology.
func (t *Topology) String() string {
	s := fmt.Sprintf("topology: %d ASes, %d links\n", len(t.ASes), len(t.Links))
	for _, ia := range t.SortedIAs() {
		as := t.ASes[ia]
		role := "leaf"
		if as.Core {
			role = "core"
		}
		s += fmt.Sprintf("  %s (%s):", ia, role)
		for _, id := range as.SortedIfIDs() {
			intf := as.Interfaces[id]
			s += fmt.Sprintf(" %d->%s#%d(%s)", id, intf.Neighbor, intf.NeighborIf, intf.Type)
		}
		s += "\n"
	}
	return s
}
