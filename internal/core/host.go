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

	// Inbox collects payloads of delivered Colibri packets.
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
// the source host.
type Session struct {
	src    *Host
	dst    *Host
	grant  *cserv.EERGrant
	keeper *cserv.EERKeeper
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
	return &Session{src: h, dst: dst, grant: grant}, nil
}

// Renew obtains a new version of the session's EER with the given bandwidth
// and installs it, seamlessly replacing the previous version (§4.2).
func (s *Session) Renew(bwKbps uint64) error {
	node := s.src.net.nodes[s.src.IA]
	grant, err := node.CServ.RenewEER(s.grant, bwKbps)
	if err != nil {
		return err
	}
	if err := node.Gateway.Install(grant.Res, grant.EER, grant.Path, grant.HopAuths); err != nil {
		return err
	}
	s.grant = grant
	return nil
}

// BandwidthKbps returns the session's reserved bandwidth.
func (s *Session) BandwidthKbps() uint64 { return uint64(s.grant.Res.BwKbps) }

// ExpiresAt returns the current version's expiry (Unix seconds).
func (s *Session) ExpiresAt() uint32 { return s.grant.Res.ExpT }

// EnsureFresh renews the session at the current bandwidth if its newest
// version expires within lead seconds — the keep-alive a host's networking
// stack runs so 16-second EERs serve long-lived flows without interruption
// (§4.2). It reports whether a renewal happened.
func (s *Session) EnsureFresh(lead uint32) (bool, error) {
	if s.grant.Res.ExpT > s.src.net.Clock.NowSec()+lead {
		return false, nil
	}
	if err := s.Renew(uint64(s.grant.Res.BwKbps)); err != nil {
		return false, err
	}
	return true, nil
}

// Maintain runs one resilient keep-alive step: like EnsureFresh it renews
// within lead seconds of expiry, but renewal failures degrade gracefully —
// when the newest version is about to die the flow is demoted to
// best-effort at the gateway instead of blackholing, and the next
// successful renewal re-promotes it (§3.2/§4.2). The returned error is the
// renewal failure, if any; the session keeps working either way.
func (s *Session) Maintain(lead uint32) error {
	if s.keeper == nil {
		node := s.src.net.nodes[s.src.IA]
		s.keeper = cserv.NewEERKeeper(node.CServ, node.Gateway, s.grant, lead)
	}
	err := s.keeper.Tick()
	s.grant = s.keeper.Grant()
	return err
}

// Demoted reports whether Maintain has demoted the session to best-effort.
func (s *Session) Demoted() bool { return s.keeper != nil && s.keeper.Demoted() }

// PathLen returns the number of on-path ASes.
func (s *Session) PathLen() int { return len(s.grant.Path) }

// Send pushes one payload through the gateway and the chain of border
// routers to the destination host. It returns the router's reason when any
// AS drops the packet. The walk mirrors Fig. 1c: gateway (monitor + HVFs),
// then one border-router validation per AS.
func (s *Session) Send(payload []byte) error {
	n := s.src.net
	node := n.nodes[s.src.IA]
	need := 64 + len(s.grant.Path)*8 + len(payload) + 64
	if cap(node.sendBuf) < need {
		node.sendBuf = make([]byte, need)
	}
	buf := node.sendBuf[:need]
	sz, err := node.gwWorker.Build(s.grant.Res.ResID, payload, buf, n.Clock.NowNs())
	if err != nil {
		return err
	}
	return n.forward(buf[:sz], s.src.IA)
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
// given AS until delivery or drop.
func (n *Network) forward(buf []byte, from topology.IA) error {
	cur := from
	for hops := 0; hops <= len(n.nodes)+1; hops++ {
		node := n.nodes[cur]
		verdict, err := node.routerWorker.Process(buf, n.Clock.NowNs())
		if err != nil {
			return fmt.Errorf("%w at %s: %v", ErrDropped, cur, err)
		}
		switch verdict.Action {
		case router.AForward:
			intf := node.AS.Interface(verdict.Egress)
			if intf == nil {
				return fmt.Errorf("%w at %s: no interface %d", ErrDropped, cur, verdict.Egress)
			}
			cur = intf.Neighbor
		case router.ADeliver:
			return n.deliver(cur, verdict.DstHost, buf)
		case router.AControl:
			return fmt.Errorf("%w at %s: unexpected control packet", ErrDropped, cur)
		default:
			return fmt.Errorf("%w at %s", ErrDropped, cur)
		}
	}
	return fmt.Errorf("%w: forwarding loop", ErrDropped)
}

// deliver parses the payload out of the packet and appends it to the host
// inbox.
func (n *Network) deliver(ia topology.IA, addr uint32, buf []byte) error {
	h := n.hosts[hostKey{ia: ia, addr: addr}]
	if h == nil {
		return fmt.Errorf("core: no host %d in %s", addr, ia)
	}
	var pkt packet.Packet
	if _, err := pkt.DecodeFromBytes(buf); err != nil {
		return err
	}
	h.Inbox = append(h.Inbox, append([]byte(nil), pkt.Payload...))
	h.Received++
	return nil
}

// GatewayOf returns the gateway of an AS, for scenarios that install
// reservations directly (experiments, examples).
func (n *Network) GatewayOf(ia topology.IA) *gateway.Gateway { return n.nodes[ia].Gateway }
