package ofd

import (
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
	if got := NormalizedSize(1000, 8_000); got < 0.00099 || got > 0.00101 {
		t.Errorf("NormalizedSize = %v, want 0.001", got)
	}
	if NormalizedSize(1000, 0) != 0 {
		t.Error("zero bandwidth should normalize to 0")
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
		d.Record(ids[i%1024], 0.0001, int64(i)*1000)
	}
}
