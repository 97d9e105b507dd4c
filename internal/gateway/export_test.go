package gateway

// Remove drops an EER's state.
func (s *Sharded) Remove(resID uint32) {
	s.shards[shardOfRes(resID, s.mask)].g.Remove(resID)
}

// Demoted reports whether the flow is currently demoted.
func (s *Sharded) Demoted(resID uint32) bool {
	return s.shards[shardOfRes(resID, s.mask)].g.Demoted(resID)
}

// Expire removes expired reservations on every shard and returns the total
// dropped.
func (s *Sharded) Expire(nowSec uint32) int {
	total := 0
	for _, sh := range s.shards {
		total += sh.g.Expire(nowSec)
	}
	return total
}

// Len returns the number of installed reservations across shards.
func (s *Sharded) Len() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.g.Len()
	}
	return total
}

// Demoted reports whether the flow is currently demoted.
func (g *Gateway) Demoted(resID uint32) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.recs.Get(g.id(resID))
	return r != nil && r.demoted
}
