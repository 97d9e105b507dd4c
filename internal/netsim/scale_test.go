package netsim_test

import (
	"fmt"
	"strings"
	"testing"

	"colibri/internal/experiments"
	"colibri/internal/netsim"
)

// TestScaleEquivalence checks the generated thousand-AS-style scenario —
// hierarchical topology, one shard per AS, shortest-path forwarding, seeded
// flows, lossy and jittery links — against the oracle at one 50-AS ISD.
func TestScaleEquivalence(t *testing.T) {
	cfg := experiments.ScaleConfig{
		ASes: 50, Flows: 60, DurationNs: 10e6, Seed: 5,
		Loss: 0.02, JitterNs: 2e5,
	}
	sc := func(s *netsim.Sim) func() string {
		delivered := experiments.BuildScale(cfg, s)
		return func() string {
			pkts, bytes, drops := delivered()
			return fmt.Sprintf("pkts=%d bytes=%d drops=%d", pkts, bytes, drops)
		}
	}
	r := matchReference(t, sc, runToEnd, engineProcs...)
	if r.events < 1000 {
		t.Fatalf("scenario too small: %d events", r.events)
	}
	if strings.HasPrefix(r.digest, "pkts=0 ") {
		t.Fatalf("no traffic delivered: %s", r.digest)
	}
}
