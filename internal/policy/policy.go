// Package policy puts the reservation lifecycle — setup, renewal, teardown,
// demand accounting, epoch granularity — behind one interface and implements
// three reservation models over the same sharded control-plane substrate
// (one cserv.CPlane per on-path AS):
//
//   - BoundedTube — the paper's model (§3.3/§4.2): a flow's end-to-end
//     reservation is set up atomically across every on-path hop (a refusal
//     anywhere rolls the whole chain back), and a renewal REPLACES the
//     current version in place — its old charge is released before the free
//     bandwidth is probed, so a flow renewing on time can never lose its
//     slot to a competing setup, and a refused renewal falls back to the
//     still-valid previous version.
//
//   - Flyover (Wyss et al., PAPERS.md) — reservations stripped to hop-local
//     "flyovers": short fixed lifetimes, no end-to-end path state and no
//     cross-hop atomicity (a hop admits or refuses on its own; a partial
//     acquisition leaves the admitted hops charged until they expire), and
//     renewal IS a fresh setup — a new-generation flyover is admitted
//     alongside the old one, which is left to lapse. Flyovers therefore
//     compete with every other setup at renewal time: the model trades the
//     bounded-tube renewal guarantee for statelessness.
//
//   - Hummingbird (Wüst et al., PAPERS.md) — reservations decoupled from
//     paths and sliced in time: each hop sells bandwidth × time-slice grants
//     over fine-grained epochs, a flow's next slice is anchored at the END
//     of its current one (not at "now"), and renewing early books the slice
//     ahead of competing setups. Slices concatenate seamlessly on the
//     restree ledger — the handover epoch is never double-charged.
//
// All three reuse the same engine mechanics: one shard lock per operation,
// shard-major batch renewal where the model permits it (bounded-tube), and
// lazy expiry on the restree ledgers. Where the models' semantics overlap —
// a single-hop path, one time slice, the same lifetime, quantized demand —
// the three produce identical admit/refuse decisions; the differential suite
// and FuzzPolicyEquivalence lock that in, and the conservation property test
// asserts that no model ever admits demand above capacity at any epoch.
package policy

import (
	"errors"

	"colibri/internal/admission"
	"colibri/internal/cserv"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// Policy errors. Engine-level refusals (cserv.ErrInsufficient,
// restree.ErrExists, ...) pass through unwrapped so callers can tell a
// capacity refusal from a duplicate.
var (
	// ErrUnknownFlow is returned for operations on a flow the policy does
	// not track.
	ErrUnknownFlow = errors.New("policy: unknown flow")
	// ErrFlowExists rejects a setup for a flow ID the policy already tracks.
	ErrFlowExists = errors.New("policy: flow already set up")
	// ErrUnprovisioned rejects a setup over a hop whose tube has not been
	// provisioned.
	ErrUnprovisioned = errors.New("policy: hop tube not provisioned")
	// ErrEmptyPath rejects a setup or provision over an empty path.
	ErrEmptyPath = errors.New("policy: empty path")
)

// Hop is one on-path AS as a reservation sees it: the AS (keyed by IA into
// the substrate's per-AS engines) and the local ingress/egress interfaces.
type Hop struct {
	IA     topology.IA
	In, Eg topology.IfID
}

// Config parameterizes a policy. The zero value of every field selects a
// default; Clock and ASes are required.
type Config struct {
	// ASes are the on-path ASes the policy runs engines for.
	ASes []*topology.AS
	// Split is the link-capacity split; the zero value selects
	// admission.DefaultSplit.
	Split admission.TrafficSplit
	// Shards is the per-AS CPlane shard count (power of two; 0 selects 1).
	Shards int
	// EpochSeconds is the demand-ledger discretization. 0 selects the
	// model's natural granularity: 4 s for bounded-tube and flyover, 1 s for
	// Hummingbird (fine slicing is the model's point).
	EpochSeconds uint32
	// LedgerEpochs is the ledger ring horizon (0 selects 128; Hummingbird
	// selects 512 so its fine epochs still cover SegR-scale windows).
	LedgerEpochs int
	// LifetimeSec is the per-grant lifetime: bounded-tube defaults to the
	// EER lifetime (16 s), flyover to one epoch (short-lived is the model),
	// Hummingbird to one slice (= 4 s at the default fine epochs).
	LifetimeSec uint32
	// Stripes is the number of tube SegRs provisioned per hop; flows are
	// assigned round-robin by flow Num. More stripes spread a hop's EER
	// population across CPlane shards (a SegR never spans shards). 0 selects
	// max(1, Shards).
	Stripes int
	// Clock supplies control-plane time in Unix seconds. Required.
	Clock func() uint32
}

// Counts is a policy's aggregate outcome snapshot.
type Counts struct {
	// Flows is the number of live flows the policy tracks.
	Flows int
	// Setups/Renews/Refusals are flow-level outcomes (a refusal is any
	// setup or renewal that did not fully succeed).
	Setups, Renews, Refusals uint64
	// HopOps is the number of per-hop control operations issued — the
	// renewal-load metric: flyover's fresh-setup renewals and Hummingbird's
	// per-slice grants cost one op per hop per lifetime, bounded-tube one op
	// per hop per renewal (batchable shard-major).
	HopOps uint64
	// Engine sums the per-AS CPlane counters.
	Engine cserv.CPlaneCounts
}

// ASAudit is one AS's conservation snapshot (see cserv.SegRAudit).
type ASAudit struct {
	IA   topology.IA
	Segs []cserv.SegRAudit
}

// Policy is the reservation-model interface: setup/renew/teardown semantics,
// demand accounting and epoch granularity differ per model, the substrate
// underneath does not. Implementations are safe for concurrent use.
type Policy interface {
	// Name returns the model name (bounded-tube, flyover, hummingbird).
	Name() string
	// Provision admits the per-hop tube SegRs flows on this path charge
	// against; demandKbps is the segment-level demand at each hop.
	// Provisioning a tube twice is a no-op.
	Provision(path []Hop, demandKbps uint64) error
	// Setup admits flow at bwKbps over the provisioned path per the model's
	// semantics and returns the granted bandwidth (== bwKbps on success;
	// grants are full-or-nothing at setup in all three models).
	Setup(flow reservation.ID, path []Hop, bwKbps uint64) (uint64, error)
	// Renew extends the flow's reservation by one lifetime per the model's
	// semantics and returns the granted bandwidth.
	Renew(flow reservation.ID) (uint64, error)
	// RenewWave renews many flows; grants[i]/errs[i] receive flow i's
	// outcome (the slices must mirror flows). Bounded-tube batches
	// shard-major through cserv.RenewBatch; the hop-local models issue
	// per-flow grants (their renewal is a fresh setup).
	RenewWave(flows []reservation.ID, grants []uint64, errs []error)
	// Teardown releases every per-hop record the policy still holds for the
	// flow. Unknown flows are a no-op.
	Teardown(flow reservation.ID)
	// Tick advances lazy expiry on every engine; it returns the number of
	// per-hop records expired.
	Tick() int
	// Counts snapshots the aggregate outcomes.
	Counts() Counts
	// Audit snapshots every AS's per-SegR grant vs peak admitted demand over
	// [fromT, toT), in IA order — the conservation probe.
	Audit(fromT, toT uint32) []ASAudit
}

// Names accepted by New.
const (
	NameBoundedTube = "bounded-tube"
	NameFlyover     = "flyover"
	NameHummingbird = "hummingbird"
)

// Names lists the implemented models in canonical order.
func Names() []string {
	return []string{NameBoundedTube, NameFlyover, NameHummingbird}
}

// New builds the named reservation model.
func New(name string, cfg Config) (Policy, error) {
	switch name {
	case NameBoundedTube:
		return NewBoundedTube(cfg)
	case NameFlyover:
		return NewFlyover(cfg)
	case NameHummingbird:
		return NewHummingbird(cfg)
	default:
		return nil, errors.New("policy: unknown model " + name)
	}
}

var (
	_ Policy = (*BoundedTube)(nil)
	_ Policy = (*Flyover)(nil)
	_ Policy = (*Hummingbird)(nil)
)
