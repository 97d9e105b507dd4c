package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumHistBuckets is the number of log₂ buckets: bucket 0 holds values ≤ 0,
// bucket i (1 ≤ i ≤ 64) holds values in [2^(i-1), 2^i).
const NumHistBuckets = 65

// histShard is one shard's bucket array plus sum and max. Shards are
// separate array elements of >8 cache lines each, so two goroutines on
// different shards touch disjoint lines with high probability.
type histShard struct {
	buckets [NumHistBuckets]atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	_       [40]byte // round the shard up to a cache-line multiple
}

// Histogram is a log₂-bucketed distribution of non-negative int64 values
// (latency nanoseconds, packet sizes). Observing costs two atomic adds plus
// a read-mostly max update; quantiles are interpolated from the buckets at
// snapshot time. The zero value is not usable; create with NewHistogram or
// Registry.Histogram.
type Histogram struct {
	shards []histShard
	mask   uint64
}

// NewHistogram builds a standalone histogram.
func NewHistogram() *Histogram {
	return &Histogram{shards: make([]histShard, shardCount), mask: uint64(shardCount - 1)}
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value. Negative values count as 0.
func (h *Histogram) Observe(v int64) {
	s := &h.shards[0]
	if h.mask != 0 {
		s = &h.shards[shardHint()&h.mask]
	}
	s.buckets[bucketOf(v)].Add(1)
	if v > 0 {
		s.sum.Add(uint64(v))
		for {
			cur := s.max.Load()
			if uint64(v) <= cur || s.max.CompareAndSwap(cur, uint64(v)) {
				break
			}
		}
	}
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		for b := 0; b < NumHistBuckets; b++ {
			n := sh.buckets[b].Load()
			s.Buckets[b] += n
			s.Count += n
		}
		s.Sum += sh.sum.Load()
		if m := sh.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	return s
}

// HistSnapshot is a point-in-time copy of a histogram. Snapshots form a
// commutative monoid under Merge; Sub undoes a Merge (used by Snapshot.Diff
// to express "what happened between two snapshots").
type HistSnapshot struct {
	Count   uint64                 `json:"count"`
	Sum     uint64                 `json:"sum"`
	Max     uint64                 `json:"max"`
	Buckets [NumHistBuckets]uint64 `json:"buckets"`
}

// Mean returns the average observed value (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) estimated by linear
// interpolation inside the containing log₂ bucket. The estimate is always
// within the true sample's bucket bounds, i.e. off by at most a factor of 2.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based: ceil(q·n), at least 1.
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for b := 0; b < NumHistBuckets; b++ {
		n := s.Buckets[b]
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if b == 0 {
				return 0
			}
			lo := float64(uint64(1) << (b - 1))
			hi := lo * 2
			if s.Max > 0 && float64(s.Max) >= lo && float64(s.Max) < hi {
				// The global max lives in this bucket: tighten the upper edge.
				hi = float64(s.Max)
			}
			frac := float64(rank-cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return float64(s.Max)
}
