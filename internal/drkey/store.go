package drkey

import (
	"fmt"
	"sync"

	"colibri/internal/cryptoutil"
	"colibri/internal/topology"
)

// Store is the slow-side cache of fetched level-1 keys for one AS. Keys are
// fetched ahead of time and renewed per epoch ("they can be fetched ahead of
// time and only need to be infrequently renewed", §2.3). It is safe for
// concurrent use.
type Store struct {
	local topology.IA
	tr    Transport
	trust *TrustStore

	mu   sync.RWMutex
	keys map[topology.IA]cachedKey
}

type cachedKey struct {
	key   cryptoutil.Key
	epoch Epoch
}

// NewStore builds a key store for the local AS fetching over the transport.
func NewStore(local topology.IA, tr Transport, trust *TrustStore) *Store {
	return &Store{local: local, tr: tr, trust: trust, keys: make(map[topology.IA]cachedKey)}
}

// Get returns K_{src→local} valid at time t, fetching it from src's key
// server on cache miss or epoch expiry.
func (s *Store) Get(src topology.IA, t uint32) (cryptoutil.Key, error) {
	key, _, err := s.KeyAt(src, t)
	return key, err
}

// KeyAt is Get that also returns the epoch the key is valid for, so that a
// caller that keeps the key knows when to ask again.
func (s *Store) KeyAt(src topology.IA, t uint32) (cryptoutil.Key, Epoch, error) {
	s.mu.RLock()
	c, ok := s.keys[src]
	s.mu.RUnlock()
	if ok && c.epoch.Contains(t) {
		return c.key, c.epoch, nil
	}
	key, ep, err := Fetch(s.tr, s.trust, src, s.local, t)
	if err != nil {
		return cryptoutil.Key{}, Epoch{}, fmt.Errorf("drkey: fetching K_{%s→%s}: %w", src, s.local, err)
	}
	if !ep.Contains(t) {
		return cryptoutil.Key{}, Epoch{}, fmt.Errorf("drkey: server returned epoch %v not covering %d", ep, t)
	}
	s.mu.Lock()
	s.keys[src] = cachedKey{key: key, epoch: ep}
	s.mu.Unlock()
	return key, ep, nil
}
