// refusal.go — the closed vocabulary of refusals. A hop says why it refused in
// one byte, the first of every response and a wave item's status, so no hop
// chooses text that reaches the source: the text is this table's.
package cserv

import (
	"errors"
	"fmt"

	"colibri/internal/admission"
	"colibri/internal/restree"
)

// Refusal is why a hop refused a request, or Granted; refusalText says what
// each means. 1–3 keep the numbers of a wave's item statuses of old.
type Refusal uint8

const (
	Granted Refusal = iota
	RefusedBandwidth
	RefusedStale
	RefusedThrottled
	RefusedAuth
	RefusedRateLimit
	RefusedBwRange
	RefusedPolicy
	RefusedVeto
	RefusedCover
	RefusedUnknownSegR
	RefusedSegRExists
	RefusedNoPending
	RefusedBelowAllocated
	RefusedUnreachable
	RefusedBadAnswer
	RefusedMalformed
	numRefusals
)

var refusalText = [numRefusals]string{
	Granted:               "granted",
	RefusedBandwidth:      "insufficient bandwidth (ledger over the window asked, §4.7 split or SegR admission)",
	RefusedStale:          "stale: no record at a hop, and re-admission failed",
	RefusedThrottled:      "renewal rate limit: renewed at the hop this second",
	RefusedAuth:           "authentication failed",
	RefusedRateLimit:      "rate limited: the source AS's requests this second are spent (§5.3)",
	RefusedBwRange:        "bandwidth above 2³²−1 kbps",
	RefusedPolicy:         "source AS policy refused the host (§4.7)",
	RefusedVeto:           "destination refused (§3.3)",
	RefusedCover:          "hop not covered by one or two SegRs, or not by those its EER record is charged to",
	RefusedUnknownSegR:    "unknown segment reservation",
	RefusedSegRExists:     "segment reservation exists",
	RefusedNoPending:      "no pending SegR version",
	RefusedBelowAllocated: "pending SegR version below allocated EER bandwidth (§4.2)",
	RefusedUnreachable:    "next hop unreachable",
	RefusedBadAnswer:      "next hop's answer malformed",
	RefusedMalformed:      "malformed request",
}

func (r Refusal) String() string {
	if r.known() {
		return refusalText[r]
	}
	return fmt.Sprintf("refusal %d", uint8(r))
}

// Error makes a code an error the initiator's refusal matches (errors.Is).
func (r Refusal) Error() string { return "cserv: " + r.String() }

// known reports whether r is a code of the vocabulary; decoders refuse others.
func (r Refusal) known() bool { return r < numRefusals }

// detail is r as a trace event carries it: nothing for a grant.
func (r Refusal) detail() string {
	if r == Granted {
		return ""
	}
	return refusalText[r]
}

// refusalOf maps an error of the hop leg or of SegR admission, or a refusal the
// initiator reports, to its code: admission.ErrUnknownIf, ErrZeroDemand and
// any other error to RefusedMalformed.
//
//colibri:nomalloc
func refusalOf(err error) Refusal {
	if r, ok := err.(refusedAt); ok {
		return r.code
	}
	switch {
	case errors.Is(err, ErrInsufficient), errors.Is(err, restree.ErrWindow),
		errors.Is(err, admission.ErrBelowMinimum), errors.Is(err, ErrTooManySegRs):
		return RefusedBandwidth
	case errors.Is(err, ErrBandwidthRange):
		return RefusedBwRange
	case errors.Is(err, ErrUnknownSegR):
		return RefusedUnknownSegR
	case errors.Is(err, ErrTransferEER), errors.Is(err, ErrUnknownEER):
		return RefusedCover
	case errors.Is(err, ErrSegRExists), errors.Is(err, admission.ErrDuplicate):
		return RefusedSegRExists
	case errors.Is(err, ErrNoPending):
		return RefusedNoPending
	case errors.Is(err, ErrBelowAllocated):
		return RefusedBelowAllocated
	}
	return RefusedMalformed
}

// refusedAt is a refusal as the initiator reports it: the code and the hop
// that refused, itemHop for a wave's item, whose hop the answer does not name.
type refusedAt struct {
	code Refusal
	hop  int
}

const itemHop = -1

// at is the initiator's error for an answer refused with r at hop: nil for a
// grant.
func (r Refusal) at(hop int) error {
	if r == Granted {
		return nil
	}
	return refusedAt{r, hop}
}

func (e refusedAt) Error() string {
	if e.hop == itemHop {
		return fmt.Sprintf("%v: %s", ErrRefused, e.code.String())
	}
	return fmt.Sprintf("%v at hop %d: %s", ErrRefused, e.hop, e.code.String())
}

// Is matches ErrRefused, the code and, for RefusedBwRange, ErrBandwidthRange.
//
//colibri:allow(testonly) — errors.Is calls it: bench's world.go matches ErrRefused through it
func (e refusedAt) Is(target error) bool {
	return target == ErrRefused || target == e.code || e.code == RefusedBwRange && target == ErrBandwidthRange
}
