package experiments

import (
	"fmt"
	"strings"

	"colibri/internal/reservation"
	"colibri/internal/topology"
	"colibri/internal/workload"
)

// Fig4Row is one data point of Fig. 4: EER admission processing time at a
// transit AS as a function of the number of existing EERs sharing the same
// SegR and the number of SegRs sharing the same source AS (s).
type Fig4Row struct {
	ExistingEERs int
	SegRs        int
	AvgMicros    float64
	StdErr       float64
}

// Fig4Defaults mirrors the paper's sweep: 10¹–10⁵ EERs, s ∈ {1, 5000,
// 10000}.
var (
	Fig4Existing = []int{10, 100, 1000, 10_000, 100_000}
	Fig4SegRs    = []int{1, 5000, 10_000}
)

// RunFig4 measures one EER admission (admit + remove, halved) at a transit
// AS against its pre-populated control-plane engine — the calls the CServ's
// handlers make per hop, under the covering SegR's shard lock.
func RunFig4(existing, segrs []int, samples int) []Fig4Row {
	if len(existing) == 0 {
		existing = Fig4Existing
	}
	if len(segrs) == 0 {
		segrs = Fig4SegRs
	}
	if samples == 0 {
		samples = 100
	}
	var rows []Fig4Row
	for _, s := range segrs {
		for _, n := range existing {
			cp, segID, err := workload.EERPopulation(s, n)
			if err != nil {
				panic(err)
			}
			durs := make([]float64, samples)
			id := reservation.ID{SrcAS: topology.MustIA(1, 77), Num: 1 << 24}
			segs := []reservation.ID{segID}
			for i := range durs {
				start := nowNs()
				if err := cp.SetupEERPath(id, segs, 1, workload.Epoch+reservation.EERLifetimeSeconds, 1); err != nil {
					panic(err)
				}
				cp.TeardownEERPath(id, segs)
				durs[i] = float64(nowNs()-start) / 2 / 1000
			}
			avg, se := meanStdErr(durs)
			rows = append(rows, Fig4Row{ExistingEERs: n, SegRs: s, AvgMicros: avg, StdErr: se})
		}
	}
	return rows
}

// FormatFig4 renders the rows as the paper's series (one line per s).
func FormatFig4(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — EER admission processing time [µs] at a transit AS\n")
	fmt.Fprintf(&b, "%-12s %-8s %-14s %-10s\n", "EERs", "s", "time [µs]", "stderr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12d %-8d %-14.3f %-10.3f\n", r.ExistingEERs, r.SegRs, r.AvgMicros, r.StdErr)
	}
	return b.String()
}
