package ofd

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

func rid(src topology.ASID, n uint32) reservation.ID {
	return reservation.ID{SrcAS: topology.MustIA(1, src), Num: n}
}

// drive sends packets of sizeBytes at the given pps on a reservation of
// bwKbps for durNs, returning whether the flow was ever flagged.
func drive(d *Detector, id reservation.ID, bwKbps uint64, sizeBytes uint32, pps float64, durNs int64) bool {
	flagged := false
	interval := int64(1e9 / pps)
	for now := int64(0); now < durNs; now += interval {
		if d.Record(id, NormalizedSize(sizeBytes, bwKbps), now) {
			flagged = true
		}
	}
	return flagged
}

func TestConformingFlowNotFlagged(t *testing.T) {
	d := New(Config{})
	// 8 Mbps reservation, 1000-byte packets at exactly 1000 pps = 8 Mbps.
	if drive(d, rid(9, 1), 8_000, 1000, 1000, 1e9) {
		t.Error("conforming flow flagged")
	}
}

func TestOverusingFlowFlagged(t *testing.T) {
	d := New(Config{})
	// 3× overuse must be flagged (count-min never underestimates).
	if !drive(d, rid(9, 1), 8_000, 1000, 3000, 1e9) {
		t.Error("3× overuser not flagged")
	}
}

func TestMildOveruseFlagged(t *testing.T) {
	d := New(Config{Tolerance: 0.1})
	// 50% overuse exceeds the 10% tolerance.
	if !drive(d, rid(9, 1), 8_000, 1000, 1500, 1e9) {
		t.Error("1.5× overuser not flagged")
	}
}

func TestNormalizationAcrossBandwidths(t *testing.T) {
	d := New(Config{})
	// A 100 Mbps reservation at full rate (12500 × 1000B pps) conforms;
	// a 1 Mbps reservation at the same packet rate massively overuses.
	if drive(d, rid(9, 1), 100_000, 1000, 12_500, 5e8) {
		t.Error("full-rate big reservation flagged")
	}
	if !drive(d, rid(9, 2), 1_000, 1000, 12_500, 5e8) {
		t.Error("small reservation at 100× not flagged")
	}
}

func TestManyConformingOneOveruser(t *testing.T) {
	d := New(Config{})
	const flows = 200
	var now int64
	// Interleave: 200 flows at 80 % of their 1 Mbps reservations (100 pps
	// of 1000 B) plus one overuser at 10×.
	// sus is the set of flagged flows, as the router's watch table keeps it.
	sus := map[reservation.ID]bool{}
	record := func(id reservation.ID) {
		if d.Record(id, NormalizedSize(1000, 1_000), now) {
			sus[id] = true
		}
	}
	interval := int64(1e9 / 100)
	for now = 0; now < 1e9; now += interval {
		for f := uint32(0); f < flows; f++ {
			record(rid(9, f))
		}
		for k := 0; k < 10; k++ {
			record(rid(9, 999))
		}
	}
	if !sus[rid(9, 999)] {
		t.Error("overuser hidden among conforming flows not flagged")
	}
	// Sketch collisions may flag a few innocents (they get escalated to
	// deterministic monitoring and cleared); but not wholesale.
	if len(sus) > flows/4 {
		t.Errorf("%d of %d flows flagged — sketch too small or broken", len(sus), flows)
	}
}

func TestWindowReset(t *testing.T) {
	d := New(Config{WindowNs: 1e7})
	id := rid(9, 1)
	// Burst in one window flags…
	flagged := false
	for i := 0; i < 100; i++ {
		flagged = d.Record(id, NormalizedSize(1500, 1_000), int64(i)) || flagged
	}
	if !flagged {
		t.Fatal("burst not flagged")
	}
	// …but after the window turns over, the same flow starts clean.
	if d.Record(id, NormalizedSize(1000, 1_000), 5e7) {
		t.Error("flow flagged immediately after window reset")
	}
}

// slowKbps and slowPkt are the flow of the benchmark's wide workload: one
// packet is 68 ms of budget, more than the 50 ms window and its 55 ms
// threshold, so a detector that counted a packet against itself flagged the
// flow on every packet it sent.
const (
	slowKbps = 128
	slowPkt  = 1088
	slowPps  = slowKbps * 1000 / 8.0 / slowPkt // the reserved rate in packets/s
)

// TestConformingSlowFlowNotFlagged: a flow whose single packet outweighs the
// window is not flagged while it conforms, sparse or at exactly its rate.
func TestConformingSlowFlowNotFlagged(t *testing.T) {
	for _, pps := range []float64{2, slowPps} {
		if drive(New(Config{}), rid(9, 1), slowKbps, slowPkt, pps, 10e9) {
			t.Errorf("conforming slow flow flagged at %.2f pps (reserved %.2f)", pps, slowPps)
		}
	}
}

// TestSlowOveruserFlagged: the same flow at 2× and 3× puts two packets into
// one window, and the second is flagged — within two windows of the start.
func TestSlowOveruserFlagged(t *testing.T) {
	for _, x := range []float64{2, 3} {
		if !drive(New(Config{}), rid(9, 1), slowKbps, slowPkt, x*slowPps, 100e6) {
			t.Errorf("slow flow at %v× its rate not flagged within two windows", x)
		}
	}
}

func TestNormalizedSize(t *testing.T) {
	// 1000 bytes on 8 Mbps = 8000 bits / 8e6 bps = 1 ms of budget.
	if got := NormalizedSize(1000, 8_000); got < 990_000 || got > 1_010_000 {
		t.Errorf("NormalizedSize = %v, want 1 000 000 ns", got)
	}
	if NormalizedSize(1000, 0) != 0 {
		t.Error("zero bandwidth should normalize to 0")
	}
}

// TestNormalizedSizeRoundsUp: the unit is whole nanoseconds, rounded up so
// that the sketch never counts less than a flow sent, and saturated at 2³²−1.
func TestNormalizedSizeRoundsUp(t *testing.T) {
	for _, c := range []struct {
		bytes uint32
		kbps  uint64
		want  uint32
	}{
		{1000, 8_000, 1_000_000},            // exact
		{1, 3, 2_666_667},                   // 8·10⁶/3 = 2 666 666.67
		{1088, 128, 68_000_000},             // pkt-wide's slow flow: 68 ms
		{1, math.MaxUint64, 1},              // the smallest nonzero size
		{0, 8_000, 0},                       // no bytes, no budget
		{537, 1, math.MaxUint32},            // 4.296 s of budget saturates
		{math.MaxUint32, 1, math.MaxUint32}, // so does the widest packet
	} {
		if got := NormalizedSize(c.bytes, c.kbps); got != c.want {
			t.Errorf("NormalizedSize(%d, %d) = %d, want %d", c.bytes, c.kbps, got, c.want)
		}
	}
}

// TestThresholdFitsCounters: New fixes ⌊(1+ε)·W⌋ in ns, and refuses a window
// whose threshold a saturated 32-bit counter could not exceed.
func TestThresholdFitsCounters(t *testing.T) {
	if got := New(Config{}).threshold; got != 55_000_000 {
		t.Errorf("default threshold %d ns, want 55 000 000 (1.1 × 50 ms)", got)
	}
	if got := New(Config{WindowNs: 3_900_000_000}).threshold; got != 4_290_000_000 {
		t.Errorf("3.9 s window: threshold %d, want 4 290 000 000", got)
	}
	for _, cfg := range []Config{{WindowNs: 3_905_000_000}, {WindowNs: 1e9, Tolerance: 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) accepted a threshold past 2³²−1", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// TestSaturatedCounterFlags: a counter stuck at 2³²−1 still reads above any
// threshold New accepts, so saturation never hides a flow.
func TestSaturatedCounterFlags(t *testing.T) {
	d := New(Config{WindowNs: 3_900_000_000})
	id := rid(9, 1)
	if d.Record(id, math.MaxUint32, 0) {
		t.Fatal("first packet flagged")
	}
	if !d.Record(id, math.MaxUint32, 1) || !d.Record(id, 1, 2) {
		t.Error("a flow over the threshold with saturated counters not flagged")
	}
}

func BenchmarkRecord(b *testing.B) {
	d := New(Config{})
	ids := make([]reservation.ID, 1024)
	for i := range ids {
		ids[i] = rid(topology.ASID(i%64), uint32(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Record(ids[i%1024], 100_000, int64(i)*1000) // 100 µs of budget
	}
}

// modDetector is the detector as it indexed its rows before Width became a
// power of two: hash % Width, a 64-bit divide per row.
type modDetector struct {
	*Detector
}

func (d modDetector) Record(id reservation.ID, normNs uint32, nowNs int64) bool {
	if nowNs-d.winStart >= d.cfg.WindowNs {
		clear(d.counters)
		d.winStart = nowNs - (nowNs-d.winStart)%d.cfg.WindowNs
		if nowNs-d.winStart >= d.cfg.WindowNs {
			d.winStart = nowNs
		}
	}
	est := uint32(math.MaxUint32)
	for row := 0; row < d.cfg.Depth; row++ {
		idx := row*d.cfg.Width + int(hash(id, d.seeds[row])%uint64(d.cfg.Width))
		est = min(est, d.counters[idx])
		d.counters[idx] = add(d.counters[idx], normNs)
	}
	return est > d.threshold
}

// TestMaskIndexMatchesModulo: at the default width and every power-of-two
// split of it, the mask touches the counter the modulo did, so every
// decision of a 10⁵-packet stream (many flows, sizes, window turnovers) is
// the same; and a width that is not a power of two is rounded up.
func TestMaskIndexMatchesModulo(t *testing.T) {
	for _, shards := range []int{1, 2, 8, 64} {
		cfg := Config{}.Split(shards)
		got, want := New(cfg), modDetector{New(cfg)}
		rng := rand.New(rand.NewSource(int64(shards)))
		now, flagged := int64(0), 0
		for i := 0; i < 100_000; i++ {
			now += int64(rng.Intn(20_000))
			id := rid(topology.ASID(1+rng.Intn(8)), uint32(rng.Intn(3000)))
			norm := NormalizedSize(uint32(64+rng.Intn(1400)), uint64(64+rng.Intn(2000)))
			g, w := got.Record(id, norm, now), want.Record(id, norm, now)
			if g != w {
				t.Fatalf("%d shards, packet %d: mask says %v, modulo %v", shards, i, g, w)
			}
			if g {
				flagged++
			}
		}
		if flagged == 0 {
			t.Errorf("%d shards: no packet flagged, the stream does not test the decision", shards)
		}
	}
	for _, c := range []struct{ width, split, want int }{{1000, 1, 1024}, {4097, 1, 8192}, {4096, 3, 2048}, {100, 8, 64}} {
		if got := (Config{Width: c.width}).Split(c.split).Width; got != c.want {
			t.Errorf("Width %d split %d: %d, want %d", c.width, c.split, got, c.want)
		}
		if got := New(Config{Width: c.width}).cfg.Width; got != pow2(c.width) {
			t.Errorf("New with Width %d: %d, want %d", c.width, got, pow2(c.width))
		}
	}
}

// TestRecord4MatchesRows holds the unrolled depth-4 update to the row loop
// every other depth takes: two detectors fed the same stream — random flows,
// sizes (zero-bandwidth ones included), gaps within and across windows, the
// clock now and then stepping back — one through record4 and one through
// recordRows, give the same answer to every packet and hold the same
// counters and window after it.
func TestRecord4MatchesRows(t *testing.T) {
	for _, width := range []int{64, 1024, 4096} {
		cfg := Config{Width: width}
		got, want := New(cfg), New(cfg)
		if got.cfg.Depth != 4 {
			t.Fatalf("default depth %d, want 4", got.cfg.Depth)
		}
		rng := rand.New(rand.NewSource(int64(width)))
		now, flagged := int64(rng.Intn(1e9)), 0
		for i := 0; i < 30_000; i++ {
			switch r := rng.Intn(100); {
			case r == 0:
				now -= int64(rng.Intn(20_000_000))
			case r < 3:
				now += int64(rng.Intn(200_000_000))
			default:
				now += int64(rng.Intn(50_000))
			}
			id := rid(topology.ASID(rng.Intn(4)), uint32(rng.Intn(256))|uint32(rng.Intn(4))<<30)
			norm := NormalizedSize(uint32(rng.Intn(1500)), uint64(rng.Intn(4000)))
			got.turn(now)
			want.turn(now)
			g, w := got.record4(id, norm), want.recordRows(id, norm)
			if g != w {
				t.Fatalf("width %d, packet %d: unrolled says %v, rows %v", width, i, g, w)
			}
			if g {
				flagged++
			}
			if (width < 4096 || i%97 == 0) && (got.winStart != want.winStart || !slices.Equal(got.counters, want.counters)) {
				t.Fatalf("width %d, packet %d: the two sketches differ", width, i)
			}
		}
		if got.winStart != want.winStart || !slices.Equal(got.counters, want.counters) {
			t.Fatalf("width %d: the two sketches differ at the end", width)
		}
		if flagged == 0 {
			t.Errorf("width %d: no packet flagged, the stream does not test the decision", width)
		}
	}
}

// FuzzDetector holds the sketch to an exact per-flow count of budget per
// window, kept in 64 bits beside it: a packet whose flow's exact count before
// it exceeds the threshold must be flagged (count-min never underestimates),
// and while a flow is the only one its window has seen, its estimate is its
// exact count, so it is flagged exactly then. Each packet is four bytes: a
// flow, a time step and a size; the fuzzer picks the width, window and
// bandwidth scale.
func FuzzDetector(f *testing.F) {
	f.Add(uint8(0), uint16(50), uint8(1), []byte{1, 0, 10, 0xff, 1, 0, 10, 0xff, 1, 0, 10, 0xff})
	f.Add(uint8(6), uint16(1), uint8(0), []byte{1, 1, 5, 0xdc, 2, 0, 5, 0xdc, 3, 0, 5, 0xdc, 1, 0, 5, 0xdc, 1, 0xff, 0, 64})
	f.Add(uint8(1), uint16(3900), uint8(0), []byte{7, 0, 0xff, 0xff, 7, 0, 0xff, 0xff, 9, 0, 0, 1, 7, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, widthLog uint8, windowMs uint16, bwLog uint8, pkts []byte) {
		cfg := Config{Width: 64 << (widthLog % 7), WindowNs: int64(1+windowMs%3900) * 1e6}
		d := New(cfg)
		exact := map[reservation.ID]uint64{}
		window, now := int64(0), int64(0)
		for i := 0; i+4 <= len(pkts); i += 4 {
			id := rid(topology.ASID(1+pkts[i]%4), uint32(pkts[i]>>2))
			now += int64(pkts[i+1]) * int64(pkts[i+1]) * 100_000
			size := uint32(pkts[i+2])<<8 | uint32(pkts[i+3])
			norm := NormalizedSize(size, uint64(1+pkts[i]%16)<<(bwLog%24))
			// Windows are whole multiples of WindowNs from time 0, and the
			// clock here never steps back.
			if w := now / cfg.WindowNs; w != window {
				window = w
				clear(exact)
			}
			before, alone := exact[id], len(exact) == 0 || len(exact) == 1 && exact[id] > 0
			exact[id] += uint64(norm)
			flagged := d.Record(id, norm, now)
			if before > uint64(d.threshold) && !flagged {
				t.Fatalf("packet %d: flow %v counted %d ns before it, over %d, not flagged", i/4, id, before, d.threshold)
			}
			if alone && flagged != (before > uint64(d.threshold)) {
				t.Fatalf("packet %d: a flow alone in its window at %d ns (threshold %d): flagged %v", i/4, before, d.threshold, flagged)
			}
		}
	})
}
