package drkey

import (
	"encoding/binary"

	"colibri/internal/cryptoutil"
)

// SecretValue returns SV_A for the epoch containing t, derived as
// PRF_master("sv" ‖ epochBegin). The most recent value is memoized.
func (e *Engine) SecretValue(t uint32) (cryptoutil.Key, Epoch) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ep := e.secretValueLocked(t)
	return e.currentSV, ep
}

// CachedCount returns the number of cached keys (for tests and metrics).
func (s *Store) CachedCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.keys)
}

// HostKey derives a protocol/host-specific level-2 key from a level-1 key:
// K_{A→B:H} = PRF_{K_{A→B}}(proto ‖ H). The paper's footnote 2 collapses
// this level for readability, and no live path derives it.
func HostKey(level1 cryptoutil.Key, proto uint8, host uint32) cryptoutil.Key {
	c := cryptoutil.MustCMAC(level1)
	var input [5]byte
	input[0] = proto
	binary.BigEndian.PutUint32(input[1:], host)
	return c.DeriveKey(input[:])
}
