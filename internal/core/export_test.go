package core

// EnsureFresh renews the session at the current bandwidth if its newest
// version expires within lead seconds — the keep-alive a host's networking
// stack runs so 16-second EERs serve long-lived flows without interruption
// (§4.2). It reports whether a renewal happened.
func (s *Session) EnsureFresh(lead uint32) (bool, error) {
	if s.ExpiresAt() > s.src.net.Clock.NowSec()+lead {
		return false, nil
	}
	if err := s.Renew(s.BandwidthKbps()); err != nil {
		return false, err
	}
	return true, nil
}
