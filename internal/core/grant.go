package core

import (
	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/topology"
)

// GrantView exposes the reservation material the source host's networking
// stack holds after an EER setup: the reservation metadata, the path, and
// the hop authenticators. A malicious or negligent source can use it to
// stamp traffic outside the gateway's monitoring — which is precisely the
// scenario the §4.8 policing machinery exists for, so the experiments and
// examples need this view.
//
// A view owns its HopAuths, copied from the gateway, and shares Path, which
// no renewal changes: the session's next renewal overwrites the gateway's σs
// in place, while a view taken before keeps stamping the version it was
// taken of — valid at the routers until that version expires (§4.2). Once
// the gateway no longer holds the EER, the view's σs are len(Path) zero keys,
// so what it stamps is dropped at the first router.
type GrantView struct {
	Res      packet.ResInfo
	EER      packet.EERInfo
	Path     []packet.HopField
	HopAuths []cryptoutil.Key
}

// Grant returns the session's reservation material.
func (s *Session) Grant() GrantView {
	f, i := s.keeper()
	g := f.Grant(i)
	auths := make([]cryptoutil.Key, len(g.Path))
	s.src.net.nodes[s.src.IA].Gateway.HopAuths(s.resID, auths)
	return GrantView{Res: g.Res, EER: g.EER, Path: g.Path, HopAuths: auths}
}

// Stamp builds a serialized Colibri data packet directly from the grant,
// bypassing the gateway (no monitoring, caller-chosen timestamp). With
// forgeHVFs the validation fields are garbage — unauthentic Colibri traffic.
func (g GrantView) Stamp(payload []byte, tsNs int64, forgeHVFs bool) []byte {
	pkt := packet.Packet{
		Type:    packet.TData,
		Res:     g.Res,
		EER:     g.EER,
		Ts:      uint64(tsNs),
		Path:    g.Path,
		HVFs:    make([]byte, len(g.Path)*packet.HVFLen),
		Payload: payload,
	}
	if forgeHVFs {
		for i := range pkt.HVFs {
			pkt.HVFs[i] = byte(i*37 + 11)
		}
	} else {
		var in [packet.HVFInputLen]byte
		packet.HVFInput(&in, pkt.Ts, uint32(pkt.Length()))
		var mac [cryptoutil.MACSize]byte
		for i, a := range g.HopAuths {
			cryptoutil.MACOneBlock(cryptoutil.NewBlock(a), &mac, &in)
			copy(pkt.HVFs[i*packet.HVFLen:], mac[:packet.HVFLen])
		}
	}
	buf := make([]byte, pkt.Length())
	if _, err := pkt.SerializeTo(buf); err != nil {
		panic(err) // the layout above is always serializable
	}
	return buf
}

// InjectPacket pushes a raw serialized Colibri packet into the network at
// the border router of `from` and walks it to delivery or drop — the entry
// point adversaries (and test harnesses) use.
func (n *Network) InjectPacket(buf []byte, from topology.IA) error {
	return n.forward(buf, n.nodes[from])
}
