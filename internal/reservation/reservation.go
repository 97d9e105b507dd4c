// Package reservation models Colibri reservation identifiers and the per-AS
// store of segment reservations (SegRs), each with a single active and at
// most one pending version (§4.2). End-to-end reservations (EERs) have no
// record here: their admission state is the control-plane engine's
// (cserv.CPlane), their data-plane state the gateway's.
//
// The store keeps each AS's local view: on-path ASes store their interface
// pair and granted bandwidth; the initiator AS additionally stores the full
// segment and the returned tokens.
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

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id.SrcAS.IsZero() && id.Num == 0 }

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

// SegR is one AS's record of a segment reservation.
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
