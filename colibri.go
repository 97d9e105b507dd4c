// Package colibri is a complete implementation of Colibri, the cooperative
// lightweight inter-domain bandwidth-reservation infrastructure of
// Giuliari et al. (CoNEXT 2021).
//
// Colibri provides worst-case minimum bandwidth guarantees between any pair
// of ASes on a path-aware Internet, resilient to DDoS attacks. It layers
// two kinds of reservations:
//
//   - Segment reservations (SegRs): intermediate-term (~5 min) AS-to-AS
//     reservations along the up-, core-, and down-segments of the underlying
//     path-aware architecture, admitted under bounded tube fairness.
//   - End-to-end reservations (EERs): short-term (16 s) host-to-host
//     reservations stacked cheaply onto SegRs.
//
// The data plane authenticates every packet with per-hop DRKey-derived
// MACs, keeps zero per-flow state at border routers, and polices overuse
// with deterministic monitoring at the source AS and probabilistic
// detection elsewhere.
//
// # Quick start
//
//	topo := colibri.TwoISDTopology()
//	net, err := colibri.NewNetwork(topo, colibri.Options{})
//	if err != nil { ... }
//	if err := net.AutoSetupSegRs(1_000_000); err != nil { ... } // kbps
//	src, _ := net.AddHost(colibri.MustIA(1, 11), 1)
//	dst, _ := net.AddHost(colibri.MustIA(2, 11), 2)
//	sess, err := src.RequestEER(dst, 8_000) // 8 Mbps
//	if err != nil { ... }
//	err = sess.Send([]byte("over a bandwidth guarantee"))
//
// The package is a facade over the building blocks in internal/: topology
// and path-segment discovery, the DRKey infrastructure, the Colibri service
// (control plane), gateway and border router (data plane), monitoring and
// policing, and a discrete-event simulator used by the evaluation harness.
package colibri

import (
	"colibri/internal/core"
	"colibri/internal/cserv"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// Core network-model types.
type (
	// IA is a combined ISD-AS identifier.
	IA = topology.IA
	// ISD identifies an isolation domain.
	ISD = topology.ISD
	// ASID is an AS number (48 bits).
	ASID = topology.ASID
	// IfID identifies an interface within one AS.
	IfID = topology.IfID
	// Topology is the inter-domain graph Colibri runs on.
	Topology = topology.Topology
	// LinkSpec configures link capacity and latency.
	LinkSpec = topology.LinkSpec
	// GenSpec parameterizes the Internet-like topology generator.
	GenSpec = topology.GenSpec
	// Segment is a discovered up-, down-, or core-path segment.
	Segment = segment.Segment
	// Path is an end-to-end AS-level path.
	Path = segment.Path
)

// Deployment and host-facing types.
type (
	// Network is a fully wired multi-AS Colibri deployment: one Colibri
	// service, gateway, border router, and key server per AS.
	Network = core.Network
	// Options configures NewNetwork.
	Options = core.Options
	// Node is one AS's Colibri deployment.
	Node = core.Node
	// Host is an end host attached to an AS.
	Host = core.Host
	// Session is an established end-to-end reservation.
	Session = core.Session
	// Clock is the network-wide virtual clock.
	Clock = core.Clock
	// Policy is a source AS's intra-AS admission policy.
	Policy = cserv.Policy
	// HostCapPolicy caps the bandwidth of the live EERs each host holds.
	HostCapPolicy = cserv.HostCapPolicy
	// ReservationID names a reservation (a Policy is told which EER it is
	// asked about): the initiating AS and its number there.
	ReservationID = reservation.ID
)

// LinkType classifies inter-domain links.
type LinkType = topology.LinkType

// Link relationship constants.
const (
	// LinkCore connects two core ASes.
	LinkCore = topology.LinkCore
	// LinkParent is a provider-to-customer link (seen from the provider).
	LinkParent = topology.LinkParent
	// LinkChild is the customer side of a provider-customer link.
	LinkChild = topology.LinkChild
	// LinkPeer is a lateral peering link.
	LinkPeer = topology.LinkPeer
)

// MustIA builds an IA from an ISD and AS number; it panics if the AS number
// exceeds 48 bits.
func MustIA(isd ISD, as ASID) IA { return topology.MustIA(isd, as) }

// NewTopology returns an empty topology for manual construction.
func NewTopology() *Topology { return topology.New() }

// TwoISDTopology returns the paper's Fig. 1 topology: source AS 1-11
// multihomed under transits 1-2 and 1-3 below core 1-1 (ISD 1), and
// destination AS 2-11 below core 2-1 (ISD 2).
func TwoISDTopology() *Topology { return topology.TwoISD(topology.LinkSpec{}) }

// GenerateTopology builds an Internet-like hierarchical topology.
func GenerateTopology(spec GenSpec) *Topology { return topology.Generate(spec) }

// LineTopology builds a chain of n ASes (the first coreCount of them core),
// useful for path-length-controlled experiments.
func LineTopology(n, coreCount int) *Topology {
	return topology.Line(n, coreCount, topology.LinkSpec{})
}

// NewNetwork builds and wires Colibri nodes for every AS of the topology.
func NewNetwork(topo *Topology, opts Options) (*Network, error) {
	return core.NewNetwork(topo, opts)
}

// NewClock starts a virtual clock at the given Unix time.
func NewClock(unixSec uint32) *Clock { return core.NewClock(unixSec) }

// Bandwidth helpers (all APIs take kbps).
const (
	// Kbps is one kilobit per second.
	Kbps uint64 = 1
	// Mbps is one megabit per second in kbps.
	Mbps uint64 = 1000
	// Gbps is one gigabit per second in kbps.
	Gbps uint64 = 1000_000
)
