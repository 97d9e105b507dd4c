// Fault injection for the simulator: per-link loss probability, latency
// jitter, and scheduled up/down windows.
//
// All randomness flows through a seeded splitmix64 generator owned by the
// fault plan, which belongs to the port's sending shard and is only drawn
// from by that shard's events, in key order. A given (seed, schedule,
// workload) triple therefore produces the identical event trace and
// counters at every GOMAXPROCS — chaos runs are reproducible bug reports,
// not flaky ones.

package netsim

// Rand is a tiny deterministic PRNG (splitmix64). It is NOT
// cryptographic; it exists so fault decisions are reproducible across
// runs and platforms without importing math/rand state.
type Rand struct{ state uint64 }

// NewRand seeds a generator. Distinct seeds give independent streams.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Int63n returns a uniform value in [0, n). n ≤ 0 returns 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.Uint64() % uint64(n))
}

// Interval is a half-open virtual-time window [From, To) in nanoseconds.
type Interval struct{ From, To int64 }

// Contains reports whether t falls inside the interval.
func (iv Interval) Contains(t int64) bool { return t >= iv.From && t < iv.To }

// FaultPlan describes the failure behaviour of one directed link: an
// independent per-packet loss probability, a uniform latency jitter bound,
// and scheduled down windows during which everything is dropped. A nil
// *FaultPlan is a valid "no faults" plan.
type FaultPlan struct {
	rng      *Rand
	lossProb float64
	jitterNs int64
	down     []Interval

	// LossDrops and DownDrops count packets dropped by random loss and by
	// down windows respectively.
	LossDrops uint64
	DownDrops uint64
}

// NewFaultPlan creates an empty (fault-free) plan with its own
// deterministic random stream.
func NewFaultPlan(seed uint64) *FaultPlan {
	return &FaultPlan{rng: NewRand(seed)}
}

// SetLoss sets the independent per-packet drop probability in [0, 1].
func (fp *FaultPlan) SetLoss(p float64) *FaultPlan {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	fp.lossProb = p
	return fp
}

// SetJitter sets the latency jitter bound: each transmission gets an extra
// uniform delay in [0, maxNs) on top of the link's propagation latency.
func (fp *FaultPlan) SetJitter(maxNs int64) *FaultPlan {
	if maxNs < 0 {
		maxNs = 0
	}
	fp.jitterNs = maxNs
	return fp
}

// AddDown schedules a down window [from, to): packets entering the link in
// that window are dropped.
func (fp *FaultPlan) AddDown(from, to int64) *FaultPlan {
	if to > from {
		fp.down = append(fp.down, Interval{From: from, To: to})
	}
	return fp
}

// Up reports whether the link is up (outside all down windows) at time t.
func (fp *FaultPlan) Up(t int64) bool {
	if fp == nil {
		return true
	}
	for _, iv := range fp.down {
		if iv.Contains(t) {
			return false
		}
	}
	return true
}

// Admit decides the fate of one packet entering the link at time t,
// updating the drop counters. A nil plan admits everything.
func (fp *FaultPlan) Admit(t int64) bool {
	if fp == nil {
		return true
	}
	if !fp.Up(t) {
		fp.DownDrops++
		return false
	}
	if fp.lossProb > 0 && fp.rng.Float64() < fp.lossProb {
		fp.LossDrops++
		return false
	}
	return true
}

// Jitter samples the extra delay for one transmission. A nil plan (or a
// zero bound) returns 0.
func (fp *FaultPlan) Jitter() int64 {
	if fp == nil || fp.jitterNs == 0 {
		return 0
	}
	return fp.rng.Int63n(fp.jitterNs)
}

// SetFaults attaches a fault plan to the port's link. Passing nil removes
// fault injection (the default).
func (p *Port) SetFaults(fp *FaultPlan) { p.faults = fp }
