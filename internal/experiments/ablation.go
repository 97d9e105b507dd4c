package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"colibri/internal/admission"
	"colibri/internal/netsim"
	"colibri/internal/ofd"
	"colibri/internal/packet"
	"colibri/internal/qos"
	"colibri/internal/replay"
	"colibri/internal/reservation"
	"colibri/internal/router"
	"colibri/internal/topology"
	"colibri/internal/workload"
)

// AblationRow is one measurement of an ablation sweep.
type AblationRow struct {
	Study   string
	Variant string
	Value   float64
	Unit    string
}

// RunAblations quantifies the design choices DESIGN.md calls out:
//
//  1. Admission memoization (the Fig. 3 enabler): memoized vs. naive O(n)
//     recomputation at 10 000 existing SegRs.
//  2. The border router's protection stack: per-packet cost of the bare
//     cryptographic check vs. adding duplicate suppression and the
//     probabilistic overuse detector.
//  3. Scheduler policy (App. B): per-class shares under full saturation
//     with strict priority vs. deficit-round-robin CBWFQ.
func RunAblations(perPoint time.Duration) []AblationRow {
	if perPoint == 0 {
		perPoint = 200 * time.Millisecond
	}
	var rows []AblationRow
	rows = append(rows, ablationAdmission(perPoint)...)
	rows = append(rows, ablationRouterStack(perPoint)...)
	rows = append(rows, ablationScheduler()...)
	return rows
}

func ablationAdmission(perPoint time.Duration) []AblationRow {
	as, _ := workload.TransitAS(2, 100_000_000)
	probe := admission.Request{
		ID:  reservation.ID{SrcAS: topology.MustIA(1, 7), Num: 1 << 30},
		Src: topology.MustIA(1, 7), In: 1, Eg: 2, MaxKbps: 10,
	}
	timeIt := func(admit func(admission.Request) (uint64, error), release func(reservation.ID)) float64 {
		runtime.GC()
		ops := 0
		start := nowNs()
		for nowNs()-start < perPoint.Nanoseconds() {
			for k := 0; k < 64; k++ {
				if _, err := admit(probe); err != nil {
					panic(err)
				}
				release(probe.ID)
			}
			ops += 64
		}
		return float64(nowNs()-start) / float64(ops)
	}
	fast := admission.NewState(as, admission.DefaultSplit)
	slow := admission.NewNaiveState(as, admission.DefaultSplit)
	for i := uint32(0); i < 10_000; i++ {
		r := admission.Request{
			ID:  reservation.ID{SrcAS: topology.MustIA(1, topology.ASID(10+i%100)), Num: i},
			Src: topology.MustIA(1, topology.ASID(10+i%100)), In: 1, Eg: 2, MaxKbps: 10,
		}
		if _, err := fast.AdmitSegR(r); err != nil {
			panic(err)
		}
		if _, err := slow.AdmitSegR(r); err != nil {
			panic(err)
		}
	}
	return []AblationRow{
		{Study: "admission@10k SegRs", Variant: "memoized (Colibri)", Unit: "ns/op",
			Value: timeIt(fast.AdmitSegR, fast.Release)},
		{Study: "admission@10k SegRs", Variant: "naive O(n)", Unit: "ns/op",
			Value: timeIt(slow.AdmitSegR, slow.Release)},
	}
}

func ablationRouterStack(perPoint time.Duration) []AblationRow {
	rng := rand.New(rand.NewSource(21))
	gw, _, secrets := workload.GatewayPopulationWithSecrets(1024, 4, rng)
	variants := []struct {
		name string
		cfg  func(c *router.Config)
	}{
		{"crypto only", func(c *router.Config) {}},
		{"+ replay suppression", func(c *router.Config) { c.Replay = &replay.Config{} }},
		{"+ OFD", func(c *router.Config) { c.OFD = ofd.New(ofd.Config{}) }},
		{"+ replay + OFD", func(c *router.Config) {
			c.Replay = &replay.Config{}
			c.OFD = ofd.New(ofd.Config{})
		}},
	}
	// Every variant is built first and the variants then take turns, one pass
	// over the packets at a time, each reporting its fastest pass: whatever else
	// the host is running slows a pass and never speeds one up, and slows the
	// memory-bound variants more than the AES-NI one, so means taken one variant
	// after the other compare the host's minutes, not the variants.
	type stack struct {
		w      *router.Worker
		replay bool
		bufs   [][]byte
		bestNs int64
	}
	stacks := make([]stack, len(variants))
	for i, v := range variants {
		cfg := router.Config{
			IA:     topology.MustIA(1, 4),
			Secret: secrets[3],
		}
		v.cfg(&cfg)
		// Fresh packets per variant: the first pass is unique traffic, later
		// ones are duplicates, which replay suppression drops (the cheaper
		// path) and the other variants forward.
		gwWorker := gw.NewWorker()
		bufs := make([][]byte, 4096)
		for j := range bufs {
			b := make([]byte, 512)
			sz, err := gwWorker.Build(uint32(1+j%1024), nil, b, workload.EpochNs+int64(j))
			if err != nil {
				panic(err)
			}
			bb := b[:sz]
			packet.SetCurrHopInPlace(bb, 3)
			bufs[j] = bb
		}
		stacks[i] = stack{w: router.New(cfg).NewWorker(), replay: cfg.Replay != nil, bufs: bufs, bestNs: math.MaxInt64}
	}
	runtime.GC()
	start := nowNs()
	for round := 0; round < 3 || nowNs()-start < perPoint.Nanoseconds()*int64(len(stacks)); round++ {
		for i := range stacks {
			st := &stacks[i]
			t := nowNs()
			for _, b := range st.bufs {
				if _, err := st.w.Process(b, workload.EpochNs); err != nil && !st.replay {
					panic(err)
				}
			}
			st.bestNs = min(st.bestNs, nowNs()-t)
		}
	}
	rows := make([]AblationRow, len(stacks))
	for i, st := range stacks {
		rows[i] = AblationRow{
			Study: "border-router stack", Variant: variants[i].name, Unit: "ns/op",
			Value: float64(st.bestNs) / float64(len(st.bufs)),
		}
	}
	return rows
}

func ablationScheduler() []AblationRow {
	run := func(policy qos.Policy) [qos.NumClasses]float64 {
		sim := netsim.NewSim()
		sink := netsim.NewCounter()
		port := netsim.NewPort(sim, "out", 40_000_000, 0, policy, sink, 0)
		node := netsim.NodeFunc(func(p *netsim.Packet, _ int) { port.Send(p) })
		const durNs = int64(100e6)
		for _, cls := range []qos.Class{qos.ClassBE, qos.ClassControl, qos.ClassEER} {
			cls := cls
			(&netsim.Source{
				Sim: sim, Dst: node, RateKbps: 40_000_000, PktBytes: 4000, StopNs: durNs,
				Make: func() *netsim.Packet {
					return &netsim.Packet{WireSize: 4000, Class: cls}
				},
			}).Start(0)
		}
		sim.Run(durNs)
		var out [qos.NumClasses]float64
		for c := qos.Class(0); c < qos.NumClasses; c++ {
			out[c] = netsim.GbpsOver(sink.Bytes[c], durNs)
		}
		return out
	}
	strict := run(qos.StrictPriority)
	drr := run(qos.DRR)
	var rows []AblationRow
	for c := qos.Class(0); c < qos.NumClasses; c++ {
		rows = append(rows,
			AblationRow{Study: "scheduler (all classes @40G)", Variant: "strict/" + c.String(),
				Value: strict[c], Unit: "Gbps"},
			AblationRow{Study: "scheduler (all classes @40G)", Variant: "drr/" + c.String(),
				Value: drr[c], Unit: "Gbps"},
		)
	}
	return rows
}

// FormatAblations renders the rows.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations — design choices quantified\n")
	fmt.Fprintf(&b, "%-30s %-26s %12s %-8s\n", "study", "variant", "value", "unit")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %-26s %12.1f %-8s\n", r.Study, r.Variant, r.Value, r.Unit)
	}
	return b.String()
}
