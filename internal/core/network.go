// Package core assembles the complete Colibri system over a topology: one
// node per AS composed of a Colibri service (control plane), a border
// router, a Colibri gateway, DRKey key server, and the monitoring stack —
// and an end-host API to request reservations and send protected traffic.
//
// It is the integration layer the paper's Fig. 1 depicts: CServs (C)
// handling SegR/EER setup, gateways (G) monitoring and stamping host
// traffic, border routers (B) validating statelessly, and monitors (M)
// policing transit traffic. The root package colibri re-exports this as the
// public API.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"colibri/internal/cryptoutil"
	"colibri/internal/cserv"
	"colibri/internal/drkey"
	"colibri/internal/gateway"
	"colibri/internal/monitor"
	"colibri/internal/ofd"
	"colibri/internal/packet"
	"colibri/internal/replay"
	"colibri/internal/router"
	"colibri/internal/segment"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// Clock is the network-wide virtual clock in nanoseconds. Tests and
// simulations advance it explicitly; live deployments would back it with
// the synchronized system time of §2.3.
type Clock struct {
	ns atomic.Int64
}

// NewClock starts a clock at the given Unix time in seconds.
func NewClock(unixSec uint32) *Clock {
	c := &Clock{}
	c.ns.Store(int64(unixSec) * 1e9)
	return c
}

// NowNs returns the current time in nanoseconds.
func (c *Clock) NowNs() int64 { return c.ns.Load() }

// NowSec returns the current Unix time in seconds.
func (c *Clock) NowSec() uint32 { return uint32(c.ns.Load() / 1e9) }

// Advance moves the clock forward by d nanoseconds.
func (c *Clock) Advance(dNs int64) { c.ns.Add(dNs) }

// Node is one AS's full Colibri deployment.
type Node struct {
	IA      topology.IA
	AS      *topology.AS
	CServ   *cserv.Service
	Router  *router.Router
	Gateway *gateway.Gateway
	KeySrv  *drkey.Server
	// Telemetry is the AS-wide registry all of the node's components emit
	// through; nil unless Options.Telemetry was set.
	Telemetry *telemetry.Registry

	// routerWorker is the node's default worker for the Network's
	// single-threaded data-plane walk; benches create their own.
	routerWorker *router.Worker
	gwWorker     *gateway.Worker
	// next is the egress table of that walk: the neighbour behind each
	// interface, indexed by IfID (nil where the AS has none).
	next []*Node
	// drops[i] is the error of a packet this node's router dropped for
	// routerDrops[i].
	drops [len(routerDrops)]error
	// fleet holds the sessions of the node's hosts, one keeper each;
	// Network.Tick renews the maintained ones in its waves.
	fleet *cserv.KeeperFleet
	// sendBuf is the grow-only buffer Session.Send serializes every packet
	// leaving this AS into. One per node is enough because core is
	// single-threaded per network: a packet is built, walked hop by hop and
	// delivered (deliver copies the payload out) before Send returns, and
	// nothing on the way keeps the bytes.
	sendBuf []byte
}

// Options configures NewNetwork.
type Options struct {
	// Clock to use; a fresh one starting at a fixed epoch if nil.
	Clock *Clock
	// EnableReplaySuppression arms the duplicate-suppression system at
	// every border router.
	EnableReplaySuppression bool
	// EnableOFD arms the probabilistic overuse detector at every border
	// router.
	EnableOFD bool
	// RateLimit is the per-source-AS control-plane request budget per
	// second (0 = cserv default).
	RateLimit int
	// Policy assigns intra-AS host policies (nil entries = allow all).
	Policy map[topology.IA]cserv.Policy
	// DiscoverOpts tunes path discovery.
	DiscoverOpts segment.DiscoverOpts
	// WrapTransport, when set, wraps each AS's control-plane transport —
	// the hook chaos experiments use to insert fault injection and/or
	// cserv.RetryTransport between a CServ and the fabric.
	WrapTransport func(ia topology.IA, inner cserv.Transport) cserv.Transport
	// Telemetry creates one telemetry.Registry per AS and wires CServ,
	// router, gateway, and flow monitor into it.
	Telemetry bool
	// CPlaneShards is the shard count of every AS's CPlane, the CServ's
	// admission engine (a power of two; 0 = 1). Each shard admits SegRs
	// against its 1/shards share of every link.
	CPlaneShards int
}

// Network is a fully wired multi-AS Colibri deployment.
type Network struct {
	Topo      *topology.Topology
	Registry  *segment.Registry
	Directory *cserv.Directory
	Clock     *Clock

	nodes map[topology.IA]*Node
	hosts map[hostKey]*Host
	// deliverPkt is deliver's decoder, reused across packets (core is
	// single-threaded per network).
	deliverPkt packet.Packet
}

type hostKey struct {
	ia   topology.IA
	addr uint32
}

// DefaultEpoch is the virtual start time of new networks.
const DefaultEpoch = uint32(1_700_000_000)

// NewNetwork builds and wires nodes for every AS of the topology.
func NewNetwork(topo *topology.Topology, opts Options) (*Network, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if opts.Clock == nil {
		opts.Clock = NewClock(DefaultEpoch)
	}
	n := &Network{
		Topo:      topo,
		Registry:  segment.Discover(topo, opts.DiscoverOpts),
		Directory: cserv.NewDirectory(),
		Clock:     opts.Clock,
		nodes:     make(map[topology.IA]*Node),
		hosts:     make(map[hostKey]*Host),
	}

	ids := make([]*drkey.Identity, 0, len(topo.ASes))
	engines := make(map[topology.IA]*drkey.Engine, len(topo.ASes))
	for _, ia := range topo.SortedIAs() {
		id := drkey.NewIdentity(ia)
		ids = append(ids, id)
		engines[ia] = drkey.NewEngine(ia, drkey.RandomMaster(), 0)
		n.nodes[ia] = &Node{IA: ia, AS: topo.AS(ia), KeySrv: drkey.NewServer(engines[ia], id)}
	}
	trust := drkey.NewTrustStore(ids...)

	for _, ia := range topo.SortedIAs() {
		node := n.nodes[ia]
		if opts.Telemetry {
			node.Telemetry = telemetry.NewRegistry("as " + ia.String())
		}
		// The per-AS data-plane secret K_i, shared by the AS's CServ and
		// border router.
		asSecret := cryptoutil.Key{}
		copy(asSecret[:], secretFor(ia))
		transport := cserv.Transport(n)
		if opts.WrapTransport != nil {
			transport = opts.WrapTransport(ia, transport)
		}
		node.CServ = cserv.New(cserv.Config{
			AS:        topo.AS(ia),
			Secret:    asSecret,
			Engine:    engines[ia],
			Keys:      drkey.NewStore(ia, n, trust),
			Directory: n.Directory,
			Transport: transport,
			Clock:     n.Clock.NowSec,
			Policy:    opts.Policy[ia],
			RateLimit: opts.RateLimit,
			Telemetry: node.Telemetry,

			CPlaneShards: opts.CPlaneShards,
		})
		rcfg := router.Config{IA: ia, Secret: asSecret, Telemetry: node.Telemetry}
		if opts.EnableReplaySuppression {
			rcfg.Replay = &replay.Config{}
		}
		if opts.EnableOFD {
			rcfg.OFD = ofd.New(ofd.Config{})
		}
		rcfg.Blocklist = monitor.NewBlocklist()
		node.Router = router.New(rcfg)
		node.Gateway = gateway.New(ia)
		node.fleet = cserv.NewKeeperFleet(node.CServ)
		if node.Telemetry != nil {
			node.Gateway.EnableTelemetry(node.Telemetry)
		}
		node.routerWorker = node.Router.NewWorker()
		for i, reason := range routerDrops {
			node.drops[i] = dropErr(ia, reason)
		}
		node.gwWorker = node.Gateway.NewWorker()
		for _, id := range node.AS.SortedIfIDs() {
			node.next = append(node.next, make([]*Node, int(id)+1-len(node.next))...)
			node.next[id] = n.nodes[node.AS.Interfaces[id].Neighbor]
		}
	}
	return n, nil
}

// secretFor derives a random-per-run AS secret; deterministic derivation is
// unnecessary since routers and CServ of one AS share the same Node.
var networkSecretSeed = func() cryptoutil.Key { return drkey.RandomMaster() }()

func secretFor(ia topology.IA) []byte {
	c := cryptoutil.MustCMAC(networkSecretSeed)
	k := c.DeriveKey([]byte(ia.String()))
	return k[:]
}

// Call implements cserv.Transport over the in-process fabric.
func (n *Network) Call(dst topology.IA, msg []byte) ([]byte, error) {
	node, ok := n.nodes[dst]
	if !ok {
		return nil, fmt.Errorf("core: no node for %s", dst)
	}
	return node.CServ.HandleMsg(msg)
}

// QueryKeyServer implements drkey.Transport over the in-process fabric.
func (n *Network) QueryKeyServer(dst topology.IA, req []byte) ([]byte, error) {
	node, ok := n.nodes[dst]
	if !ok {
		return nil, fmt.Errorf("core: no key server for %s", dst)
	}
	return node.KeySrv.Handle(req)
}

// Node returns the node of an AS (nil if unknown).
func (n *Network) Node(ia topology.IA) *Node { return n.nodes[ia] }

// TelemetrySnapshots captures the registry of every AS (in sorted AS order).
// Empty unless the network was built with Options.Telemetry.
func (n *Network) TelemetrySnapshots() []telemetry.Snapshot {
	var snaps []telemetry.Snapshot
	for _, ia := range n.Topo.SortedIAs() {
		if node := n.nodes[ia]; node.Telemetry != nil {
			snaps = append(snaps, node.Telemetry.Snapshot())
		}
	}
	return snaps
}

// Tick runs housekeeping on every node (expiry cleanup, rate-limit windows),
// then renews each node's due maintained sessions in its fleet's waves. It
// returns the number of renewals that failed.
func (n *Network) Tick() int {
	now := n.Clock.NowSec()
	ias := n.Topo.SortedIAs()
	for _, ia := range ias {
		node := n.nodes[ia]
		node.CServ.Tick()
		node.Gateway.Expire(now)
	}
	failed := 0
	for _, ia := range ias {
		failed += n.nodes[ia].fleet.Tick()
	}
	return failed
}

// AutoSetupSegRs establishes a default mesh of segment reservations at the
// given bandwidth: every non-core AS reserves its up-segments, core ASes
// reserve core-segments between each other, and (acting on behalf of the
// destination ASes, §3.3) down-segments to every non-core AS. This is the
// bootstrap an operator would drive from traffic forecasts. The mesh asks with
// a minimum of 0, so a SegR may legally be granted 0 kbps — one that no EER can
// ever ride; each such SegR is reported in the returned error.
func (n *Network) AutoSetupSegRs(bwKbps uint64) error {
	var errs []error
	setup := func(seg *segment.Segment) {
		segr, err := n.nodes[seg.SrcIA()].CServ.SetupSegment(seg, 0, bwKbps)
		if err == nil && segr.Active.BwKbps == 0 {
			err = fmt.Errorf("core: SegR %s (%s-segment %s → %s) was granted 0 of %d kbps",
				segr.ID, seg.Type, seg.SrcIA(), seg.DstIA(), bwKbps)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	for _, as := range n.Topo.NonCoreASes() {
		for _, seg := range n.Registry.UpSegments(as.IA) {
			setup(seg)
		}
		for _, seg := range n.Registry.DownSegments(as.IA) {
			setup(seg)
		}
	}
	cores := n.Topo.CoreASes()
	for _, a := range cores {
		for _, b := range cores {
			if a.IA == b.IA {
				continue
			}
			for _, seg := range n.Registry.CoreSegments(a.IA, b.IA) {
				setup(seg)
			}
		}
	}
	return errors.Join(errs...)
}
