package netsim_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"colibri/internal/netsim"
	"colibri/internal/qos"
	"colibri/internal/telemetry"
)

// scenario builds one topology instance into a fresh Sim and returns a
// digest of its user-visible final state (delivered bytes, drop counters,
// ...), evaluated after the run. Builders must not share mutable state
// across invocations: every check builds the scenario once per run.
type scenario func(s *netsim.Sim) (digest func() string)

// engineProcs are the GOMAXPROCS values the equivalence checks run Run at.
var engineProcs = []int{1, 2, 3, 8}

// outcome is everything one run is compared on.
type outcome struct {
	end    int64
	events uint64
	trace  []netsim.TraceEntry
	digest string
}

// record builds sc into a fresh traced Sim, executes it with run, and
// collects the outcome.
func record(sc scenario, run func(*netsim.Sim) int64) outcome {
	s := netsim.NewSim()
	s.EnableTrace()
	digest := sc(s)
	o := outcome{end: run(s)}
	o.events, o.trace, o.digest = s.Executed(), s.Trace(), digest()
	return o
}

// diff names the first divergence of got from want: end time, trace entry
// or state digest.
func (want outcome) diff(got outcome) error {
	if want.end != got.end {
		return fmt.Errorf("final time diverges: reference=%d run=%d", want.end, got.end)
	}
	for i := 0; i < min(len(want.trace), len(got.trace)); i++ {
		if want.trace[i] != got.trace[i] {
			return fmt.Errorf("trace diverges at event %d: reference(%s) run(%s)", i, want.trace[i], got.trace[i])
		}
	}
	if len(want.trace) != len(got.trace) {
		return fmt.Errorf("trace length diverges: reference=%d run=%d", len(want.trace), len(got.trace))
	}
	if want.digest != got.digest {
		return fmt.Errorf("state digest diverges:\nreference: %s\nrun: %s", want.digest, got.digest)
	}
	return nil
}

// runToEnd is Sim.Run to completion.
func runToEnd(s *netsim.Sim) int64 { return s.Run(0) }

// matchReference runs sc to completion under the global-key-order oracle,
// then under run at each GOMAXPROCS in procs, and fails on the first
// divergence. It returns the oracle's outcome.
func matchReference(t testing.TB, sc scenario, run func(*netsim.Sim) int64, procs ...int) outcome {
	t.Helper()
	want := record(sc, func(s *netsim.Sim) int64 { return netsim.RunReference(s, 0) })
	for _, p := range procs {
		got := withProcs(p, func() outcome { return record(sc, run) })
		if err := want.diff(got); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", p, err)
		}
	}
	return want
}

// withProcs runs fn at GOMAXPROCS=p.
func withProcs[T any](p int, fn func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	return fn()
}

// ringScenario builds a ring of 5 shards (the root plus four more), each with
// a rate source, a forwarding router, a sink counter, and a port to the next
// member. Packets carry a seeded hop count and class; routers decrement hops
// and forward until the packet sinks locally. Link latencies differ per hop
// (1.0–1.8 ms) so the safe window (1 ms) spans several hops' activity.
//
// variant selects the fault treatment:
//
//	"clean"       perfect links
//	"loss-jitter" 5% loss and up to 0.3 ms jitter on every ring link
//	"partition"   links 2→3 and 3→4 down during [5 ms, 10 ms)
//	"crash"       member 1's router detached during [5 ms, 12 ms)
func ringScenario(seed uint64, variant string) scenario {
	return func(s *netsim.Sim) func() string {
		const n = 5
		const stop = 20e6 // 20 ms of traffic

		members := make([]*netsim.Shard, n)
		members[0] = s.Root()
		for i := 1; i < n; i++ {
			members[i] = s.NewShard()
		}

		sinks := make([]*netsim.Counter, n)
		ports := make([]*netsim.Port, n)
		routers := make([]netsim.Node, n)
		for i := 0; i < n; i++ {
			sinks[i] = netsim.NewCounter()
			i := i
			routers[i] = netsim.NodeFunc(func(pkt *netsim.Packet, _ int) {
				hops := pkt.Meta.(int)
				if hops <= 0 {
					sinks[i].Receive(pkt, 0)
					return
				}
				pkt.Meta = hops - 1
				ports[i].Send(pkt)
			})
		}

		var det *netsim.Detachable
		if variant == "crash" {
			det = netsim.NewDetachable(routers[1])
			members[1].At(5e6, det.Detach)
			members[1].At(12e6, det.Attach)
		}

		for i := 0; i < n; i++ {
			next := (i + 1) % n
			dst := routers[next]
			if det != nil && next == 1 {
				dst = det
			}
			lat := int64(1e6 + float64(i)*2e5)
			ports[i] = netsim.NewShardPort(members[i], fmt.Sprintf("ring%d", i),
				100_000, lat, qos.StrictPriority, dst, members[next], 0)
			if variant == "loss-jitter" {
				ports[i].SetFaults(netsim.NewFaultPlan(seed*31 + uint64(i)).SetLoss(0.05).SetJitter(3e5))
			}
		}
		if variant == "partition" {
			netsim.Partition(5e6, 10e6, ports[2], ports[3])
		}

		for i := 0; i < n; i++ {
			rng := netsim.NewRand(seed + uint64(i)*1013)
			src := &netsim.Source{
				Sim:      s,
				Dst:      routers[i],
				Shard:    members[i],
				RateKbps: 40_000,
				PktBytes: 500,
				StopNs:   stop,
				Make: func() *netsim.Packet {
					return &netsim.Packet{
						WireSize: 500,
						Class:    qos.Class(rng.Uint64() % uint64(qos.NumClasses)),
						Meta:     1 + int(rng.Uint64()%uint64(2*n)),
					}
				},
			}
			src.Start(1000)
		}

		return func() string {
			var b strings.Builder
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, "m%d sink=%v sent=%v drops=%v\n",
					i, sinks[i].Bytes, ports[i].Sent, ports[i].Drops())
			}
			if det != nil {
				fmt.Fprintf(&b, "det dropped=%d\n", det.Dropped)
			}
			return b.String()
		}
	}
}

// starScenario builds a hub (root shard) and 6 leaves with *identical* link
// latencies, rates, and start times, so deliveries from every leaf reach the
// hub at exactly the same timestamps: the (dst, src, seq) tie-break carries
// the full ordering burden. The hub's router is stateful (a modulo counter
// choosing which leaf gets an echo), so any ordering divergence immediately
// changes user-visible state, not just traces.
func starScenario(seed uint64, variant string) scenario {
	return func(s *netsim.Sim) func() string {
		const leaves = 6
		const stop = 15e6

		hub := s.Root()
		hubSink := netsim.NewCounter()
		back := make([]*netsim.Port, leaves)
		leafSinks := make([]*netsim.Counter, leaves)
		up := make([]*netsim.Port, leaves)

		var echoed int
		hubRouter := netsim.NodeFunc(func(pkt *netsim.Packet, _ int) {
			hubSink.Receive(pkt, 0)
			echoed++
			if echoed%3 == 0 {
				back[echoed/3%leaves].Send(&netsim.Packet{WireSize: 200, Class: pkt.Class})
			}
		})

		for i := 0; i < leaves; i++ {
			leaf := s.NewShard()
			leafSinks[i] = netsim.NewCounter()
			up[i] = netsim.NewShardPort(leaf, fmt.Sprintf("up%d", i),
				80_000, 1e6, qos.StrictPriority, hubRouter, hub, 0)
			back[i] = netsim.NewShardPort(hub, fmt.Sprintf("down%d", i),
				80_000, 1e6, qos.StrictPriority, leafSinks[i], leaf, 0)
			if variant == "loss" {
				up[i].SetFaults(netsim.NewFaultPlan(seed ^ uint64(i)<<8).SetLoss(0.1))
			}

			rng := netsim.NewRand(seed*7 + uint64(i))
			port := up[i]
			src := &netsim.Source{
				Sim:      s,
				Dst:      netsim.NodeFunc(func(pkt *netsim.Packet, _ int) { port.Send(pkt) }),
				Shard:    leaf,
				RateKbps: 20_000,
				PktBytes: 400,
				StopNs:   stop,
				Make: func() *netsim.Packet {
					return &netsim.Packet{
						WireSize: 400,
						Class:    qos.Class(rng.Uint64() % uint64(qos.NumClasses)),
					}
				},
			}
			src.Start(1000) // identical start on every leaf → timestamp collisions
		}

		return func() string {
			var b strings.Builder
			fmt.Fprintf(&b, "hub sink=%v echoed=%d\n", hubSink.Bytes, echoed)
			for i := 0; i < leaves; i++ {
				fmt.Fprintf(&b, "leaf%d sink=%v up=%v drops=%v\n",
					i, leafSinks[i].Bytes, up[i].Sent, up[i].Drops())
			}
			return b.String()
		}
	}
}

// equivVariants is the table of topology × fault treatments the equivalence
// suite sweeps. Shared with the fuzz harness.
var equivVariants = []struct {
	name  string
	build func(seed uint64) scenario
}{
	{"ring/clean", func(seed uint64) scenario { return ringScenario(seed, "clean") }},
	{"ring/loss-jitter", func(seed uint64) scenario { return ringScenario(seed, "loss-jitter") }},
	{"ring/partition", func(seed uint64) scenario { return ringScenario(seed, "partition") }},
	{"ring/crash", func(seed uint64) scenario { return ringScenario(seed, "crash") }},
	{"star/clean", func(seed uint64) scenario { return starScenario(seed, "clean") }},
	{"star/loss", func(seed uint64) scenario { return starScenario(seed, "loss") }},
}

// TestParallelEquivalence is the engine's guarantee: for every variant and
// seed, Run's full event trace and final user-visible state equal the
// global-key-order oracle's at every GOMAXPROCS in engineProcs.
func TestParallelEquivalence(t *testing.T) {
	for _, v := range equivVariants {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", v.name, seed), func(t *testing.T) {
				if r := matchReference(t, v.build(seed), runToEnd, engineProcs...); r.events < 500 {
					t.Fatalf("scenario too small to be meaningful: %d events", r.events)
				}
			})
		}
	}
}

// TestParallelWorkerCounts checks the trace is invariant under the worker
// count (the schedule must not leak into the simulation): workers=N runs at
// GOMAXPROCS=N, so the pool has min(N, 5 shards) workers.
func TestParallelWorkerCounts(t *testing.T) {
	for _, workers := range engineProcs {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			matchReference(t, ringScenario(42, "loss-jitter"), runToEnd, workers)
		})
	}
}

// TestParallelUntil checks time-bounded runs: stopping at 8 ms and 12 ms and
// resuming to completion converges to the oracle's uninterrupted run, and
// each stop returns its bound.
func TestParallelUntil(t *testing.T) {
	stopResume := func(s *netsim.Sim) int64 {
		for _, until := range []int64{8e6, 12e6} {
			if got := s.Run(until); got != until {
				t.Fatalf("Run(%d) ended at %d", until, got)
			}
		}
		return s.Run(0)
	}
	matchReference(t, ringScenario(7, "clean"), stopResume, engineProcs...)
}

// TestParallelTelemetry checks the engine's instruments: windows advance,
// the safe-window gauge equals the declared lookahead, and the per-window
// event histogram accounts for every executed event.
func TestParallelTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	s := netsim.NewSim()
	s.SetTelemetry(reg)
	ringScenario(3, "clean")(s)
	s.Run(0)

	snap := reg.Snapshot()
	windows := snap.Counters["netsim.par.windows"]
	if windows < 2 {
		t.Fatalf("expected multiple safe windows, got %d", windows)
	}
	if got := snap.Gauges["netsim.par.safe_window_ns"]; got != 1e6 {
		t.Fatalf("safe_window_ns = %d, want 1e6 (min ring latency)", got)
	}
	if got := snap.Gauges["netsim.par.active_shards"]; got < 1 || got > 5 {
		t.Fatalf("active_shards = %d, want 1..5", got)
	}
	h := snap.Histograms["netsim.par.window_events"]
	if h.Count != windows || h.Sum != s.Executed() {
		t.Fatalf("window_events count=%d sum=%d, want %d windows / %d events", h.Count, h.Sum, windows, s.Executed())
	}
}

// TestCrossLookaheadViolation checks the guard rail fires with the same
// message whether the window drains inline ("seq", GOMAXPROCS 1) or on a
// pool worker ("par", GOMAXPROCS 4), and that the Sim is not left running.
func TestCrossLookaheadViolation(t *testing.T) {
	for _, c := range []struct {
		name  string
		procs int
	}{{"seq", 1}, {"par", 4}} {
		t.Run(c.name, func(t *testing.T) {
			s := netsim.NewSim()
			sh := s.NewShard()
			s.SetLookahead(1000)
			s.Root().At(500, func() {
				s.Root().Cross(sh, 600, func() {}) // 600 < 500+1000
			})
			got := withProcs(c.procs, func() (r any) {
				defer func() { r = recover() }()
				s.Run(0)
				return nil
			})
			// The callback's own value, not a shardpool.WorkerPanic wrapping it.
			if msg, ok := got.(string); !ok || !strings.Contains(msg, "violates lookahead") {
				t.Fatalf("want the lookahead-violation panic string, got %T %v", got, got)
			}
			s.Now()      // would panic were the window left open
			s.NewShard() // would panic were the Sim left running
		})
	}
}

// TestSimNowPanicsInsideWindow checks the loud-misuse guard: global-clock
// reads from inside a window of a multi-shard simulation panic, whether the
// window drains inline or on the pool.
func TestSimNowPanicsInsideWindow(t *testing.T) {
	for _, procs := range []int{1, 2} {
		s := netsim.NewSim()
		sh := s.NewShard()
		s.SetLookahead(1000)
		panicked := false
		sh.At(10, func() {
			defer func() { panicked = recover() != nil }()
			s.Now()
		})
		withProcs(procs, func() int64 { return s.Run(0) })
		if !panicked {
			t.Fatalf("GOMAXPROCS=%d: Sim.Now inside a window should panic", procs)
		}
	}
}

// TestSingleShardRunSpawnsNoGoroutine guards Table 2 and the examples
// against gaining concurrency: a single-shard Run drains its one window on
// the caller's goroutine whatever GOMAXPROCS is, while a two-shard Run at
// the same setting does start pool workers.
func TestSingleShardRunSpawnsNoGoroutine(t *testing.T) {
	during := func(shards int) (before, inside int) {
		s := netsim.NewSim()
		for i := 1; i < shards; i++ {
			s.NewShard()
		}
		s.SetLookahead(1000)
		sink := netsim.NewCounter()
		port := netsim.NewPort(s, "out", 8_000, 100, qos.StrictPriority, sink, 0)
		port.Send(&netsim.Packet{WireSize: 1000, Class: qos.ClassBE})
		s.Root().At(5, func() { inside = runtime.NumGoroutine() })
		before = runtime.NumGoroutine()
		withProcs(4, func() int64 { return s.Run(0) })
		if sink.Bytes[qos.ClassBE] != 1000 {
			t.Fatalf("%d shards: delivered %v", shards, sink.Bytes)
		}
		return before, inside
	}
	if before, inside := during(1); inside != before {
		t.Fatalf("single-shard Run: %d goroutines inside a callback, %d before Run", inside, before)
	}
	if before, inside := during(2); inside <= before {
		t.Fatalf("two-shard Run at GOMAXPROCS 4: %d goroutines inside, %d before — the probe sees no pool", inside, before)
	}
}
