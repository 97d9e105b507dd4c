package main

import "fmt"

// spec is one workload: how large each population on the network is and how
// much of each station runs per round. Every workload runs all three
// stations — solo requests, batched renewal waves, packets — and the
// housekeeping on one core.Network, because the benchmark contract (the builder's, not
// in this repository) wants every end-to-end metric printed by every
// workload and never 0; the sizes decide which station dominates and
// therefore which layer the workload stresses, and record.go's home says on
// which workloads a metric is judged. Adding a workload is adding a row
// here (and to BENCHMARK.json); the program under test is not touched.
type spec struct {
	name string
	why  string

	// roundSecs is the virtual time one round covers. Housekeeping
	// (Network.Tick, Session.Maintain) runs once per round, and every
	// KeeperFleet ticks once.
	roundSecs int
	// cohorts staggers establishment: sessions and fleet are established in
	// this many equal parts one virtual second apart, so that with 1-second
	// rounds one part comes due for renewal every round. 1 establishes the
	// whole population in one virtual second — the §4.2 storm.
	cohorts int
	// parts is the number of slices a round is cut into. Each slice runs its
	// share of the round's requests, ticks one of as many KeeperFleets (the
	// wave station's keepers are dealt over them) and sends its share of the
	// round's packets, so every station, side-loads too, is sampled at some
	// hundred moments spread over the run, each a few milliseconds long:
	// short enough to fall inside one phase of the host, and numerous enough
	// for the run's fastest phase to be among them (README.md, "Noise"). The
	// work is the same: one fleet sends a round's due keepers as consecutive
	// messages too.
	parts int
	// warmRounds run, untimed, at the end of every set-up.
	warmRounds int
	// roundMs is the wall time one round took on the sandbox this was sized
	// on, in its usual (slower) state. It turns the benchmark contract's
	// --seconds into a fixed number of rounds (roundsFor): the timed section
	// is a fixed op count, so every count repeats exactly, and it lasts about
	// --seconds there.
	roundMs int

	// Packet station.
	sessions     int    // EERs that carry packets
	sessKbps     uint64 // bandwidth of each
	payload      int    // payload bytes per packet
	pktsPerRound int    // packets per round, cycling a seeded permutation of the sessions
	// pktStepNs is the virtual time between two packets. The round's packets
	// go out as one paced burst (the requests and waves between its slices
	// take no virtual time) and the clock then jumps to the round's end:
	// spreading a few packets over a whole round would charge each with a
	// rotation of the routers' 50 ms replay and overuse windows.
	pktStepNs    int64
	hostileEvery int // every n-th packet slot is hostile (0 = none)

	// Request station: churn setups and as many solo renewals per round;
	// an EER is renewed once, renewAge rounds after its setup, then left to
	// expire, so the churn population is steady at (renewAge+lifetime)/roundSecs cohorts.
	churnPerRound int
	renewAge      int

	// Wave station: EERs kept alive by cserv.KeeperFleets, one per slice.
	fleet int
}

// specs are the benchmark's workloads. Names are fixed; later issues and
// BENCHMARK.json refer to them.
var specs = []spec{
	{
		name:      "pkt-hot",
		why:       "bare per-packet cost at the smallest packet: 64 hot sessions, zero-byte payload, little state; gateway and router crypto, decode and replay filters do the work",
		roundSecs: 1, cohorts: 12, parts: 8, warmRounds: 2, roundMs: 540,
		sessions: 64, sessKbps: 1000, payload: 0, pktsPerRound: 64000, pktStepNs: 15625,
		churnPerRound: 250, renewAge: 8, fleet: 6144,
	},
	{
		name:      "pkt-wide",
		why:       "same packet layers past the caches: 16384 sessions, 1000-byte payload, 1 in 64 packets forged, replayed or stale, so lookups, copies and the drop path count",
		roundSecs: 1, cohorts: 12, parts: 8, warmRounds: 2, roundMs: 750,
		sessions: 16384, sessKbps: 128, payload: 1000, pktsPerRound: 32768, pktStepNs: 30517, hostileEvery: 64,
		churnPerRound: 250, renewAge: 8, fleet: 6144,
	},
	{
		name:      "req-mix",
		why:       "request journey as a host feels it: 3000 solo setups and renewals per virtual second through every on-path CServ, with refusals and expiry live",
		roundSecs: 1, cohorts: 12, parts: 8, warmRounds: 2, roundMs: 360,
		sessions: 64, sessKbps: 1000, payload: 0, pktsPerRound: 2048, pktStepNs: 15625,
		churnPerRound: 1500, renewAge: 8, fleet: 6144,
	},
	{
		name:      "req-storm",
		why:       "the renewal storm: 32768 EERs established in one second all renew at once every round, in batched waves of 1024, a different code path from solo renewal",
		roundSecs: 12, cohorts: 1, parts: 32, warmRounds: 1, roundMs: 1250,
		sessions: 64, sessKbps: 1000, payload: 0, pktsPerRound: 8192, pktStepNs: 15625,
		churnPerRound: 1000, renewAge: 1, fleet: 32768,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// slice is the part-th of the round's equal shares of n ops.
func (s spec) slice(n, part int) (lo, hi int) {
	return part * n / s.parts, (part + 1) * n / s.parts
}

// roundsFor is the number of timed rounds a run of nominally the given
// length makes: at least two, so that a traced run has a traced round.
func (s spec) roundsFor(seconds float64) int {
	if n := int(seconds*1e3/float64(s.roundMs) + 0.5); n > 2 {
		return n
	}
	return 2
}

// scaled shrinks the populations and per-round op counts by f (for smoke
// runs and the self-tests), keeping every station alive.
func (s spec) scaled(f float64) spec {
	if f >= 1 || f <= 0 {
		return s
	}
	shrink := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		if v := int(float64(n) * f); v > floor {
			return v
		}
		return floor
	}
	full := s.sessions
	s.sessions = shrink(s.sessions, s.cohorts)
	s.fleet = shrink(s.fleet, s.cohorts)
	// Fewer sessions take turns more often: stretch the pacing so that each
	// keeps its rate, and send no more than then fits into the round.
	s.pktStepNs = s.pktStepNs * int64(full) / int64(s.sessions)
	s.pktsPerRound = shrink(s.pktsPerRound, 4*s.hostileEvery+64)
	if most := int(int64(s.roundSecs) * 1e9 / s.pktStepNs); s.pktsPerRound > most {
		s.pktsPerRound = most
	}
	s.churnPerRound = shrink(s.churnPerRound, 32)
	return s
}
