package core

import (
	"strings"
	"testing"

	"colibri/internal/replay"
	"colibri/internal/router"
	"colibri/internal/telemetry"
)

// TestNetworkTelemetryWiring: with Options.Telemetry every layer of every
// node emits into the AS registry — control-plane counters, gateway
// occupancy and phase histograms, router processed count, and the
// lifecycle tracer.
func TestNetworkTelemetryWiring(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{Telemetry: true})
	sess, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		net.Clock.Advance(1e6)
		if err := sess.Send([]byte("ping")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	src := net.Node(hs.IA)
	if src.Telemetry == nil {
		t.Fatal("source node has no registry")
	}
	snap := src.Telemetry.Snapshot()
	if got := snap.Counters["cserv.ee_setup_ok"]; got != 1 {
		t.Errorf("cserv.ee_setup_ok = %d, want 1", got)
	}
	if got := snap.Counters["gateway.built"]; got != 10 {
		t.Errorf("gateway.built = %d, want 10", got)
	}
	if got := snap.Gauges["gateway.reservations"]; got != 1 {
		t.Errorf("gateway.reservations = %d, want 1", got)
	}
	if h := snap.Histograms["gateway.hvf_ns"]; h.Count != 10 {
		t.Errorf("gateway.hvf_ns count = %d, want 10", h.Count)
	}
	if got := snap.Counters["router.processed"]; got == 0 {
		t.Error("router.processed = 0, want >0")
	}
	var sawSetup bool
	for _, ev := range snap.Traces["cserv.lifecycle"] {
		if ev.Kind == telemetry.EvEESetup && ev.OK {
			sawSetup = true
		}
	}
	if !sawSetup {
		t.Error("no successful EE-setup event in lifecycle trace")
	}

	// Every AS produced a snapshot, and the text export mentions each.
	snaps := net.TelemetrySnapshots()
	if want := len(net.Topo.SortedIAs()); len(snaps) != want {
		t.Fatalf("got %d snapshots, want %d", len(snaps), want)
	}
	var b strings.Builder
	if err := telemetry.WriteText(&b, snaps...); err != nil {
		t.Fatal(err)
	}
	for _, iaStr := range []string{"as 1-11", "as 2-11"} {
		if !strings.Contains(b.String(), iaStr) {
			t.Errorf("text export missing %q", iaStr)
		}
	}
}

// TestNetworkTelemetryOff: without the option no registries exist and the
// snapshot list is empty (the data plane stays instrument-free).
func TestNetworkTelemetryOff(t *testing.T) {
	net, _, _ := twoISDNet(t, Options{})
	if reg := net.Node(ia(1, 11)).Telemetry; reg != nil {
		t.Error("unexpected registry without Options.Telemetry")
	}
	if snaps := net.TelemetrySnapshots(); len(snaps) != 0 {
		t.Errorf("got %d snapshots, want 0", len(snaps))
	}
}

// TestReplayFilterBytesGauge: the memory the replay filters hold can be read
// from the running system. After one virtual second shaped like the
// benchmark's pkt-hot workload (64 sessions of 1 Mbps, empty payloads, a
// packet every 15.625 µs), every router that saw the traffic reports
// replay.filter_bytes above zero and below ⅛ of the design ceiling, and at
// most 480 000 B: only the 11 buckets that can still match hold buffers,
// each a stage for five times a 50 ms bucket's 3 200 identifiers or, for the
// first bucket, its chain (436 376 B).
func TestReplayFilterBytesGauge(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{Telemetry: true, EnableReplaySuppression: true, RateLimit: 1 << 30})
	sessions := make([]*Session, 64)
	for i := range sessions {
		s, err := hs.RequestEER(hd, 1000)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	for i := 0; i < 64_000; i++ {
		net.Clock.Advance(15_625)
		if err := sessions[i%len(sessions)].Send(nil); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	ceiling := replay.Config{}.CeilingBytes(router.DefaultFreshnessNs)
	routers := 0
	for _, snap := range net.TelemetrySnapshots() {
		if snap.Counters["router.processed"] == 0 {
			continue
		}
		routers++
		if b := snap.Gauges["replay.filter_bytes"]; b <= 0 || b >= ceiling/8 || b > 480_000 {
			t.Errorf("%s: replay.filter_bytes = %d, want in (0, %d) and at most 480 000", snap.Label, b, ceiling/8)
		} else {
			t.Logf("%s: replay.filter_bytes = %d (%.1f %% of the ceiling)", snap.Label, b, 100*float64(b)/float64(ceiling))
		}
	}
	if routers < 2 {
		t.Fatalf("only %d routers saw traffic", routers)
	}
}
