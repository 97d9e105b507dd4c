// Package reservation models Colibri reservation identifiers, versions and
// segment reservations (SegRs), each with a single active and at most one
// pending version (§4.2). It holds no state: each AS keeps one record per
// SegR in its control-plane engine (cserv.CPlane), which hands out SegR
// values as copies of it, and the admission state of end-to-end reservations
// (EERs) there too; their data-plane state is the gateway's.
package reservation

import (
	"fmt"

	"colibri/internal/packet"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// ID identifies a reservation globally: the CServ of the source AS assigns
// locally unique numbers, so (SrcAS, Num) is globally unique (§4.3).
type ID struct {
	SrcAS topology.IA
	Num   uint32
}

func (id ID) String() string { return fmt.Sprintf("%s#%d", id.SrcAS, id.Num) }

// Less orders IDs by (SrcAS, Num), the canonical order for deterministic
// iteration over reservation maps.
func (id ID) Less(o ID) bool {
	if id.SrcAS != o.SrcAS {
		return id.SrcAS < o.SrcAS
	}
	return id.Num < o.Num
}

// Lifetimes from §3.3: SegRs live ~5 minutes, EERs 16 seconds.
const (
	SegRLifetimeSeconds = 300
	EERLifetimeSeconds  = 16
)

// Version is one (version, bandwidth, expiry) incarnation of a reservation.
type Version struct {
	Ver    uint16
	BwKbps uint64
	ExpT   uint32
}

// Expired reports whether the version is expired at time now.
func (v Version) Expired(now uint32) bool { return now >= v.ExpT }

// SegR is a copy of one AS's record of a segment reservation: on-path ASes
// keep their interface pair and granted bandwidth; the initiator AS
// additionally the full segment and the returned tokens.
type SegR struct {
	ID      ID
	SegType segment.Type
	// In, Eg are this AS's interfaces for the reservation (0 at ends).
	In, Eg topology.IfID
	// MinKbps is the smallest bandwidth the initiator accepts; renewals may
	// renegotiate within [MinKbps, requested].
	MinKbps uint64
	// Active is the currently usable version.
	Active Version
	// Pending is a renewed version awaiting explicit activation, if any.
	Pending *Version

	// Initiator-only state:
	// Seg is the full segment (nil at transit ASes).
	Seg *segment.Segment
	// Tokens are the per-hop SegR tokens of Eq. (3), initiator-only.
	Tokens [][packet.HVFLen]byte
}
