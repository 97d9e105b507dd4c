package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: exact below 64 ns,
// then 64 sub-buckets per power of two (bucket width ≤ 1.6 % of its value).
// Recording is O(1) and allocation-free, and the whole structure is a few
// tens of kilobytes, so timing millions of operations does not grow the Go
// heap and thereby change the garbage collector's pacing for the program
// under test — which a sample-per-op slice would.
type hist struct {
	n      uint64
	counts [histBuckets]uint64
	sums   [histBuckets]uint64
}

const (
	histSub     = 64
	histBuckets = histSub + 36*histSub // up to 2^42 ns ≈ 73 min
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 7
	b := histSub + shift*histSub + int(v>>uint(shift)) - histSub
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// histBounds returns the bucket's lowest value and its width.
func histBounds(b int) (lo, width float64) {
	if b < histSub {
		return float64(b), 1
	}
	shift := uint((b - histSub) / histSub)
	mant := uint64(histSub + (b-histSub)%histSub)
	return float64(mant << shift), float64(uint64(1) << shift)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := histBucket(uint64(ns))
	h.n++
	h.counts[b]++
	h.sums[b] += uint64(ns)
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, width := histBounds(b)
			return lo + width*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// trimmedMean returns the mean of the fastest q share of the samples: the
// service time with the tail beyond the q-quantile discarded.
func (h *hist) trimmedMean(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	keep := q * float64(h.n)
	var cum, sum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= keep {
			// Take the needed share of the boundary bucket at its own mean.
			sum += (keep - cum) * float64(h.sums[b]) / float64(c)
			break
		}
		cum += float64(c)
		sum += float64(h.sums[b])
	}
	return sum / keep
}

// dist summarises a distribution for the machine-readable record.
type dist struct {
	N   uint64  `json:"n"`
	Q1  float64 `json:"q1"`
	P50 float64 `json:"p50"`
	Q3  float64 `json:"q3"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// summary reports the distribution in the given unit (nsPerUnit nanoseconds).
func (h *hist) summary(nsPerUnit float64) dist {
	return dist{
		N:   h.n,
		Q1:  h.quantile(0.25) / nsPerUnit,
		P50: h.quantile(0.50) / nsPerUnit,
		Q3:  h.quantile(0.75) / nsPerUnit,
		P95: h.quantile(0.95) / nsPerUnit,
		P99: h.quantile(0.99) / nsPerUnit,
	}
}

// quantileOf returns the q-quantile of a small exact sample by linear
// interpolation between order statistics (NaN-free: 0 when empty).
func quantileOf(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(vals []float64) float64 { return quantileOf(vals, 0.5) }

// series is the timed samples of one kind of op: pooled, and cut into
// blocks of consecutive samples with each block's own statistics, so that a
// run can be summarised by the level its fastest block reaches rather than
// by a pool that mixes the host's fast and slow phases in whatever share the
// run happened to see (README.md, "Noise"). A block never spans two slices
// of a round: flush closes it.
type series struct {
	all   hist
	block hist
	size  uint64
	p50   []float64 // per block, ns
	mean  []float64 // per block, trimmed at the block's p95
}

func (s *series) record(ns int64) {
	s.all.record(ns)
	s.block.record(ns)
	if s.block.n == s.size {
		s.flush()
	}
}

// flush closes the current block, keeping it if it is at least half full.
func (s *series) flush() {
	if s.block.n > 0 && s.block.n >= s.size/2 {
		s.p50 = append(s.p50, s.block.quantile(0.50))
		s.mean = append(s.mean, s.block.trimmedMean(0.95))
	}
	s.block = hist{}
}
