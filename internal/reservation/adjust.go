package reservation

import "fmt"

// RemoveEERVersion removes one version (rollback of a failed setup),
// releasing its SegR charge; the EER record disappears with its last
// version.
func (s *Store) RemoveEERVersion(id ID, ver uint16) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.eers[id]
	if !ok {
		return fmt.Errorf("%w: EER %s", ErrNotFound, id)
	}
	kept := e.Versions[:0]
	found := false
	for _, v := range e.Versions {
		if v.Ver == ver {
			found = true
			continue
		}
		kept = append(kept, v)
	}
	if !found {
		return fmt.Errorf("%w: EER %s version %d", ErrNotFound, id, ver)
	}
	e.Versions = kept
	s.rebalanceLocked(e)
	if len(e.Versions) == 0 {
		delete(s.eers, id)
		delete(s.contrib, id)
	}
	return nil
}

// rebalanceLocked recomputes the EER's max-version contribution after
// versions were removed or expired and returns the difference to its SegRs.
func (s *Store) rebalanceLocked(e *EER) {
	var newMax uint64
	for _, v := range e.Versions {
		newMax = max(newMax, v.BwKbps)
	}
	delta := s.contrib[e.ID] - newMax
	for _, sid := range e.SegIDs {
		if sr, ok := s.segs[sid]; ok {
			sr.AllocatedEERKbps -= min(delta, sr.AllocatedEERKbps)
		}
	}
	s.contrib[e.ID] = newMax
}
