package core

import (
	"errors"
	"fmt"

	"colibri/internal/cserv"
	"colibri/internal/gateway"
	"colibri/internal/packet"
	"colibri/internal/router"
	"colibri/internal/topology"
)

// Host is an end host attached to an AS. Its networking stack (the
// SCIONDaemon analogue of §3.2) talks to the local CServ for reservations
// and to the local gateway for sending.
type Host struct {
	net  *Network
	IA   topology.IA
	Addr uint32

	// Inbox collects payloads of delivered Colibri packets. A caller that
	// truncates it (Inbox = Inbox[:0]) hands the truncated elements' storage
	// back: later deliveries copy into it, so a payload slice taken before
	// the truncation must not be used after it. A steady receiver that
	// truncates this way allocates nothing per packet.
	Inbox [][]byte
	// Received counts delivered packets.
	Received int
	// ReceivedBE counts payloads delivered over the best-effort class after
	// a session fell back (demoted flow or dead reservation, §3.2).
	ReceivedBE int
}

// AddHost attaches a host to an AS.
func (n *Network) AddHost(ia topology.IA, addr uint32) (*Host, error) {
	if n.nodes[ia] == nil {
		return nil, fmt.Errorf("core: unknown AS %s", ia)
	}
	k := hostKey{ia: ia, addr: addr}
	if n.hosts[k] != nil {
		return nil, fmt.Errorf("core: host %d already exists in %s", addr, ia)
	}
	h := &Host{net: n, IA: ia, Addr: addr}
	n.hosts[k] = h
	return h, nil
}

// Session is an established end-to-end reservation from the perspective of
// the source host. Its serving version is keeper row of the source node's
// fleet, and its σs are the gateway's.
type Session struct {
	src *Host
	dst *Host
	row int32
	// resID and hops are what Send needs of the version, the same for all.
	resID uint32
	hops  int
}

// keeper returns the fleet that keeps s, at s's row.
func (s *Session) keeper() (*cserv.KeeperFleet, int) {
	return s.src.net.nodes[s.src.IA].fleet, int(s.row)
}

// Data-plane send errors.
var (
	// ErrDropped wraps the router's reason when a packet died on path.
	ErrDropped = errors.New("core: packet dropped on path")
)

// RequestEER sets up an end-to-end reservation of bwKbps towards dst,
// installs it at the local gateway, and returns the session.
func (h *Host) RequestEER(dst *Host, bwKbps uint64) (*Session, error) {
	node := h.net.nodes[h.IA]
	grant, err := node.CServ.RequestEER(h.Addr, dst.Addr, dst.IA, bwKbps)
	if err != nil {
		return nil, err
	}
	if err := node.Gateway.Install(grant.Res, grant.EER, grant.Path, grant.HopAuths); err != nil {
		return nil, err
	}
	// Lead 0: a session nobody maintains expires.
	row := node.fleet.Add(cserv.NewEERKeeper(node.CServ, node.Gateway, grant, 0))
	return &Session{src: h, dst: dst, row: int32(row), resID: grant.Res.ResID, hops: len(grant.Path)}, nil
}

// Renew obtains a new version of the session's EER with the given bandwidth
// and installs it, seamlessly replacing the previous version (§4.2).
func (s *Session) Renew(bwKbps uint64) error {
	f, i := s.keeper()
	return f.Renew(i, bwKbps)
}

// BandwidthKbps returns the session's reserved bandwidth.
func (s *Session) BandwidthKbps() uint64 {
	f, i := s.keeper()
	return uint64(f.Res(i).BwKbps)
}

// ExpiresAt returns the current version's expiry (Unix seconds).
func (s *Session) ExpiresAt() uint32 {
	f, i := s.keeper()
	return f.Res(i).ExpT
}

// Maintain keeps the session alive: from now on each Network.Tick renews it
// in its node's waves within lead seconds (at least 1) of expiry, demoting the
// flow to best-effort when its newest version dies unrenewed and re-promoting
// it on the next success (§3.2/§4.2). Maintain sends nothing; it returns
// gateway.ErrDemoted while the session is demoted.
func (s *Session) Maintain(lead uint32) error {
	f, i := s.keeper()
	f.SetLead(i, lead)
	if f.IsDemoted(i) {
		return gateway.ErrDemoted
	}
	return nil
}

// Demoted reports whether the keep-alive has demoted the session.
func (s *Session) Demoted() bool {
	f, i := s.keeper()
	return f.IsDemoted(i)
}

// PathLen returns the number of on-path ASes.
func (s *Session) PathLen() int { return s.hops }

// Send pushes one payload through the gateway and the chain of border
// routers to the destination host. It returns the router's reason when any
// AS drops the packet. The walk mirrors Fig. 1c: gateway (monitor + HVFs),
// then one border-router validation per AS.
func (s *Session) Send(payload []byte) error {
	n := s.src.net
	node := n.nodes[s.src.IA]
	need := packet.DataLen(s.hops, len(payload))
	if cap(node.sendBuf) < need {
		node.sendBuf = make([]byte, need)
	}
	buf := node.sendBuf[:need]
	sz, err := node.gwWorker.Build(s.resID, payload, buf, n.Clock.NowNs())
	if err != nil {
		return err
	}
	return n.forward(buf[:sz], node)
}

// SendOrFallback sends the payload on the reservation, falling back to the
// best-effort class when the reservation cannot carry it (demoted flow,
// expired or uninstalled version). It reports whether the payload travelled
// best-effort. Policing drops (gateway.ErrRateExceeded) and on-path drops
// stay errors: those packets exceeded the contract or died in transit, and
// silently resending them would hide real loss.
func (s *Session) SendOrFallback(payload []byte) (bool, error) {
	err := s.Send(payload)
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, gateway.ErrDemoted),
		errors.Is(err, gateway.ErrExpired),
		errors.Is(err, gateway.ErrUnknownRes):
		// Best-effort SCION forwarding is not simulated; fallback is direct
		// delivery into the destination's best-effort inbox.
		s.dst.ReceivedBE++
		return true, nil
	default:
		return false, err
	}
}

// forward walks a serialized packet through border routers starting at the
// given node, along the nodes' egress tables, until delivery or drop.
func (n *Network) forward(buf []byte, node *Node) error {
	for hops := 0; hops <= len(n.nodes)+1; hops++ {
		verdict, err := node.routerWorker.Process(buf, n.Clock.NowNs())
		if err != nil {
			return node.dropped(err)
		}
		switch verdict.Action {
		case router.AForward:
			if int(verdict.Egress) >= len(node.next) || node.next[verdict.Egress] == nil {
				return fmt.Errorf("%w at %s: no interface %d", ErrDropped, node.IA, verdict.Egress)
			}
			node = node.next[verdict.Egress]
		case router.ADeliver:
			return n.deliver(node.IA, verdict.DstHost, buf)
		case router.AControl:
			return fmt.Errorf("%w at %s: unexpected control packet", ErrDropped, node.IA)
		default:
			return fmt.Errorf("%w at %s", ErrDropped, node.IA)
		}
	}
	return fmt.Errorf("%w: forwarding loop", ErrDropped)
}

// routerDrops are the reasons a border router drops a packet for. NewNetwork
// builds each node's error for each of them once (Node.drops), so that a
// packet dropped on path allocates nothing.
var routerDrops = [...]error{
	router.ErrDecode, router.ErrExpired, router.ErrStale, router.ErrBlocked,
	router.ErrBadHVF, router.ErrReplay, router.ErrOveruse, router.ErrBestEffort,
}

// dropErr is the error of a packet dropped at ia for reason: both ErrDropped
// and reason.
func dropErr(ia topology.IA, reason error) error {
	return fmt.Errorf("%w at %s: %w", ErrDropped, ia, reason)
}

// dropped returns the error of a packet this node's router dropped for reason.
func (node *Node) dropped(reason error) error {
	for i, r := range routerDrops {
		if reason == r {
			return node.drops[i]
		}
	}
	return dropErr(node.IA, reason)
}

// deliver parses the payload out of the packet and appends a copy to the
// host inbox, into the storage of the element past the inbox's length when
// the caller truncated one away.
func (n *Network) deliver(ia topology.IA, addr uint32, buf []byte) error {
	h := n.hosts[hostKey{ia: ia, addr: addr}]
	if h == nil {
		return fmt.Errorf("core: no host %d in %s", addr, ia)
	}
	pkt := &n.deliverPkt
	if _, _, err := pkt.DecodeHop(buf); err != nil {
		return err
	}
	var dst []byte
	if k := len(h.Inbox); k < cap(h.Inbox) {
		dst = h.Inbox[:k+1][k][:0]
	}
	h.Inbox = append(h.Inbox, append(dst, pkt.Payload...))
	h.Received++
	return nil
}
