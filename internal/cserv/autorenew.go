package cserv

import (
	"errors"
	"fmt"

	"colibri/internal/reservation"
)

// Forecast decides the bandwidth range for a SegR's next period, given its
// current grant — the hook for the traffic prediction of §3.2 ("since link
// utilization often exhibits repeating patterns over time, an AS can
// forecast future requirements and reserve appropriate bandwidth for
// segments in advance").
type Forecast func(id reservation.ID, currentKbps uint64) (minKbps, maxKbps uint64)

// SameBandwidth forecasts the current grant again.
func SameBandwidth(_ reservation.ID, current uint64) (uint64, uint64) {
	return 0, current
}

// ErrZeroGrant marks a renewal that technically succeeded but was granted
// zero bandwidth while the old version still had some: treating it as
// success would activate a worthless version, so AutoRenew keeps the old
// version instead and reports this error.
var ErrZeroGrant = errors.New("cserv: renewal granted zero bandwidth")

// AutoRenew renews and activates every locally initiated SegR whose active
// version expires within lead seconds, using the forecast (SameBandwidth if
// nil). It returns how many SegRs were renewed and the joined errors of the
// ones that failed; failed renewals keep their current version until expiry
// (§4.2's seamlessness applies: the old version serves until then) and are
// retried on the next pass: a pending version stranded by a failed
// activation is re-activated (or discarded when unusable) rather than
// blocking the SegR from due-selection forever.
func (s *Service) AutoRenew(lead uint32, f Forecast) (int, error) {
	if f == nil {
		f = SameBandwidth
	}
	now := s.clock()
	// In ID order, which is this AS's numbering: deterministic, for
	// reproducible tests and fair bandwidth contention across runs.
	due := make([]*reservation.SegR, 0)
	for _, segr := range s.cp.InitiatedSegRs() {
		if segr.Active.ExpT <= now+lead {
			due = append(due, segr)
		}
	}

	renewed := 0
	var errs []error
	for _, segr := range due {
		if segr.Pending != nil {
			// A previous pass renewed but failed to activate. Retry the
			// activation if the pending version is worth activating;
			// otherwise discard it and renew afresh below.
			if segr.Pending.BwKbps > 0 && segr.Pending.ExpT > now {
				if err := s.ActivateSegment(segr.ID, segr.Pending.Ver); err != nil {
					errs = append(errs, fmt.Errorf("activate %s: %w", segr.ID, err))
					continue
				}
				renewed++
				continue
			}
			_ = s.cp.clearPending(segr.ID)
		}
		minK, maxK := f(segr.ID, segr.Active.BwKbps)
		ver, final, err := s.RenewSegment(segr.ID, minK, maxK)
		if err != nil {
			errs = append(errs, fmt.Errorf("renew %s: %w", segr.ID, err))
			continue
		}
		if final == 0 && segr.Active.BwKbps > 0 {
			// A zero-bandwidth grant for a version that had bandwidth is a
			// failed renewal, not a success (activating it would demote the
			// segment to nothing while claiming health). Keep the old
			// version, drop the dead pending, and retry next pass.
			_ = s.cp.clearPending(segr.ID)
			s.metrics.RenewZeroBw.Add(1)
			errs = append(errs, fmt.Errorf("renew %s: %w", segr.ID, ErrZeroGrant))
			continue
		}
		if err := s.ActivateSegment(segr.ID, ver); err != nil {
			errs = append(errs, fmt.Errorf("activate %s: %w", segr.ID, err))
			continue
		}
		renewed++
	}
	return renewed, errors.Join(errs...)
}
