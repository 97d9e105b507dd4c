package experiments

import (
	"errors"
	"fmt"
	"strings"

	"colibri/internal/core"
	"colibri/internal/cserv"
	"colibri/internal/netsim"
	"colibri/internal/topology"
)

// ChaosConfig parameterizes the graceful-degradation chaos scenario: EER
// sessions across the two-ISD topology while the control plane suffers
// random message loss and a mid-run CServ crash. The zero value is filled
// in by defaults (5 % loss, a 20 s crash of the core CServ 2-1 — longer
// than the 16 s EER lifetime, so renewal cannot outwait it).
type ChaosConfig struct {
	// Seed drives every random decision; same seed, same run.
	Seed uint64
	// Loss is the per-control-message drop probability in [0, 1], applied
	// independently to the request and response leg of every hop call.
	Loss float64
	// Seconds is the run length in virtual seconds.
	Seconds int
	// Flows is the number of concurrent EER sessions 1-11 → 2-11.
	Flows int
	// PktPerSec is the data packets each flow offers per second.
	PktPerSec int
	// CrashIA's CServ is unreachable during [CrashFrom, CrashTo) seconds
	// from the start (CrashFrom == CrashTo disables the crash).
	CrashIA            topology.IA
	CrashFrom, CrashTo int
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.Loss == 0 {
		c.Loss = 0.05
	}
	if c.Seconds == 0 {
		c.Seconds = 45
	}
	if c.Flows == 0 {
		c.Flows = 4
	}
	if c.PktPerSec == 0 {
		c.PktPerSec = 5
	}
	if c.CrashIA == 0 {
		c.CrashIA = topology.MustIA(2, 1)
		if c.CrashFrom == 0 && c.CrashTo == 0 {
			c.CrashFrom, c.CrashTo = 10, 30
		}
	}
	return c
}

// ChaosResult aggregates one chaos run.
type ChaosResult struct {
	Config ChaosConfig

	// Data-plane accounting. Every offered packet must be delivered on the
	// reservation or fall back to best-effort; Blackholed counts the ones
	// that did neither.
	Offered           int
	DeliveredReserved int
	DeliveredBE       int
	Blackholed        int

	// Control-plane accounting.
	RenewalFailures uint64 // failed renewals, summed over Network.Tick's returns
	Demotions       uint64 // flows dropped to best-effort
	Promotions      uint64 // flows restored to their reserved class
	Retries         uint64 // control-message re-sends
	Timeouts        uint64 // requests that hit their deadline
	Exhausted       uint64 // requests that ran out of attempts
	DedupHits       uint64 // retried requests answered idempotently
	InjectedDrops   uint64 // control messages killed by loss or crash
}

// chaos transport errors (distinct so logs tell loss from crash).
var (
	errChaosLost = errors.New("chaos: control message lost")
	errChaosDown = errors.New("chaos: cserv down")
)

// chaosTransport injects faults into one AS's control-plane transport:
// requests are dropped by the destination AS's inbound fault plan (loss or
// crash window), and responses by the calling AS's own plan — a lost
// response leaves every downstream hop committed, which is exactly the
// partial failure the dedup paths must absorb.
type chaosTransport struct {
	self  topology.IA
	inner cserv.Transport
	clock *core.Clock
	plans map[topology.IA]*netsim.FaultPlan
	armed *bool
}

func (c *chaosTransport) Call(dst topology.IA, msg []byte) ([]byte, error) {
	if *c.armed && !c.plans[dst].Admit(c.clock.NowNs()) {
		if !c.plans[dst].Up(c.clock.NowNs()) {
			return nil, errChaosDown
		}
		return nil, errChaosLost
	}
	resp, err := c.inner.Call(dst, msg)
	if err != nil {
		return nil, err
	}
	if *c.armed && !c.plans[c.self].Admit(c.clock.NowNs()) {
		return nil, errChaosLost
	}
	return resp, nil
}

// RunChaos executes the scenario: establish sessions fault-free, arm the
// faults, then drive one virtual second at a time — Network.Tick renews the
// flows, each maintained (core.Session.Maintain) since its setup, in the
// source node's waves, and each flow offers data packets via SendOrFallback.
// The §3.2 contract under test: every packet is delivered on the reservation
// or as best-effort, never blackholed, and flows demoted during the crash are
// re-promoted after the restart.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg = cfg.withDefaults()
	res := &ChaosResult{Config: cfg}

	topo := topology.TwoISD(topology.LinkSpec{})
	armed := false
	plans := make(map[topology.IA]*netsim.FaultPlan)
	var retries []*cserv.RetryTransport
	net, err := core.NewNetwork(topo, core.Options{
		Telemetry: true,
		WrapTransport: func(ia topology.IA, inner cserv.Transport) cserv.Transport {
			rt := cserv.NewRetryTransport(
				&chaosTransport{self: ia, inner: inner, plans: plans, armed: &armed},
				// A 300 ms deadline makes requests into a crashed AS fail
				// by deadline rather than by attempt budget, so both
				// failure paths are exercised.
				cserv.RetryPolicy{Seed: cfg.Seed ^ uint64(ia), DeadlineNs: 300e6},
				nil)
			retries = append(retries, rt)
			return rt
		},
	})
	if err != nil {
		return nil, err
	}
	for _, ia := range topo.SortedIAs() {
		plans[ia] = netsim.NewFaultPlan(cfg.Seed ^ uint64(ia)).SetLoss(cfg.Loss)
	}
	// The chaosTransport reads the clock lazily; set it now that the
	// network (and its clock) exists.
	for _, rt := range retries {
		rt.Inner.(*chaosTransport).clock = net.Clock
	}

	// Fault-free establishment.
	if err := net.AutoSetupSegRs(1_000_000); err != nil {
		return nil, err
	}
	src, err := net.AddHost(topology.MustIA(1, 11), 0x0a000001)
	if err != nil {
		return nil, err
	}
	dst, err := net.AddHost(topology.MustIA(2, 11), 0x14000001)
	if err != nil {
		return nil, err
	}
	sessions := make([]*core.Session, cfg.Flows)
	for i := range sessions {
		if sessions[i], err = src.RequestEER(dst, 8_000); err != nil {
			return nil, fmt.Errorf("chaos: establishing flow %d: %w", i, err)
		}
		if err := sessions[i].Maintain(6); err != nil {
			return nil, fmt.Errorf("chaos: maintaining flow %d: %w", i, err)
		}
	}

	// Arm the faults: loss everywhere, the crash window on the target.
	startNs := net.Clock.NowNs()
	if cfg.CrashTo > cfg.CrashFrom {
		plans[cfg.CrashIA].AddDown(
			startNs+int64(cfg.CrashFrom)*1e9, startNs+int64(cfg.CrashTo)*1e9)
	}
	armed = true

	payload := []byte("chaos-probe")
	for s := 0; s < cfg.Seconds; s++ {
		net.Clock.Advance(1e9)
		res.RenewalFailures += uint64(net.Tick())
		for _, sess := range sessions {
			for p := 0; p < cfg.PktPerSec; p++ {
				res.Offered++
				be, serr := sess.SendOrFallback(payload)
				switch {
				case serr != nil:
					res.Blackholed++
				case be:
					res.DeliveredBE++
				default:
					res.DeliveredReserved++
				}
			}
		}
	}

	srcMetrics := net.Node(src.IA).CServ.Metrics()
	res.Demotions = srcMetrics.Demotions.Value()
	res.Promotions = srcMetrics.Promotions.Value()
	for _, ia := range topo.SortedIAs() {
		res.DedupHits += net.Node(ia).CServ.Metrics().DedupHits.Value()
		res.InjectedDrops += plans[ia].LossDrops + plans[ia].DownDrops
	}
	for _, rt := range retries {
		res.Retries += rt.Retries.Value()
		res.Timeouts += rt.Timeouts.Value()
		res.Exhausted += rt.Exhausted.Value()
	}
	if res.DeliveredReserved+res.DeliveredBE+res.Blackholed != res.Offered {
		return res, fmt.Errorf("chaos: accounting mismatch: %d+%d+%d != %d",
			res.DeliveredReserved, res.DeliveredBE, res.Blackholed, res.Offered)
	}
	return res, nil
}

// FormatChaos renders one run.
func FormatChaos(r *ChaosResult) string {
	var b strings.Builder
	c := r.Config
	fmt.Fprintf(&b, "§3.2 — graceful degradation under control-plane chaos\n")
	fmt.Fprintf(&b, "scenario: %d flows, %d s, %.0f%% message loss, CServ %s down [%d s, %d s), seed %d\n",
		c.Flows, c.Seconds, c.Loss*100, c.CrashIA, c.CrashFrom, c.CrashTo, c.Seed)
	fmt.Fprintf(&b, "%-22s %d\n", "offered packets", r.Offered)
	fmt.Fprintf(&b, "%-22s %d\n", "delivered (reserved)", r.DeliveredReserved)
	fmt.Fprintf(&b, "%-22s %d\n", "delivered (best-eff.)", r.DeliveredBE)
	fmt.Fprintf(&b, "%-22s %d\n", "blackholed", r.Blackholed)
	fmt.Fprintf(&b, "%-22s %d injected drops, %d retries, %d timeouts, %d exhausted, %d dedup hits\n",
		"control plane", r.InjectedDrops, r.Retries, r.Timeouts, r.Exhausted, r.DedupHits)
	fmt.Fprintf(&b, "%-22s %d failed renewals, %d demotions, %d re-promotions\n",
		"failover", r.RenewalFailures, r.Demotions, r.Promotions)
	if r.Blackholed == 0 {
		fmt.Fprintf(&b, "verdict: zero blackholed packets — every flow kept its reservation or degraded to best-effort\n")
	} else {
		fmt.Fprintf(&b, "verdict: VIOLATION — %d packets were neither delivered nor degraded\n", r.Blackholed)
	}
	return b.String()
}
