package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"colibri/internal/core"
	"colibri/internal/cryptoutil"
	"colibri/internal/cserv"
	"colibri/internal/gateway"
	"colibri/internal/packet"
	"colibri/internal/router"
	"colibri/internal/topology"
)

// Common configuration of every workload (ISSUE 14): the paper's Fig. 1
// topology, a 5-AS path 1-11 → 1-2 → 1-1 → 2-1 → 2-11, the full protection
// stack at every router, the sharded CPlane store, and a request budget
// large enough not to be the subject.
const (
	segRKbps     = 30_000_000
	cplaneShards = 8
	keeperLead   = 4          // seconds before expiry at which keepers renew
	overCapKbps  = 40_000_000 // more than any SegR holds: must be refused
	overCapEvery = 32         // one setup in this many asks for overCapKbps
	staleNs      = 600e6      // older than the routers' 500 ms freshness window
	inboxKeep    = 4096       // truncate the destination inbox this often
)

var (
	srcIA = topology.MustIA(1, 11)
	dstIA = topology.MustIA(2, 11)
)

// Hostile packet kinds, in rotation order.
const (
	hostileBadHVF = iota
	hostileReplay
	hostileStale
	numHostile
)

var hostileNames = [numHostile]string{"badhvf", "replay", "stale"}

// world is one workload's network with its populations, plus everything
// the harness expects of it. It is driven by one goroutine, closed loop.
type world struct {
	sp  spec
	rng *rand.Rand
	net *core.Network
	cs  *cserv.Service   // source CServ (1-11)
	gw  *gateway.Gateway // source gateway
	src *core.Host
	dst *core.Host
	// path is the on-path ASes in order, for naming control-plane hops.
	path []topology.IA

	sessions []*core.Session
	perm     []int // seeded order the packet station cycles the sessions in
	cursor   int
	slot     int // packet slots so far, for the hostile rotation
	seq      uint64
	payload  []byte

	fleets []*cserv.KeeperFleet // one per slice of a round
	inst   *installer

	// churn[i] holds the grants set up in round i-renewAge; they are
	// renewed once, in round i, and then forgotten.
	churn    map[int][]*cserv.EERGrant
	nextHost uint32
	// This round's requests: the op order (0 setup, 1 renew), the cohort due
	// for renewal with the next one to renew, and the setups granted so far.
	tape  []uint8
	due   []*cserv.EERGrant
	fresh []*cserv.EERGrant
	// digest folds the session permutation and every op tape, so tests can
	// tell two seeds' inputs apart and one seed's runs alike.
	digest uint64

	// Expectations and outcomes. Counts cover the whole life of the world;
	// any failure anywhere makes the run incorrect.
	attempted int64
	failed    int64
	failures  []string
	counts    counts

	// Tracing (nil rec = untraced world, no transport wrapper installed).
	rec     *recorder
	gwW     *gateway.Worker
	rtW     map[topology.IA]*router.Worker
	walkBuf []byte
	walkPkt packet.Packet
	// buildRejects counts traced packets the gateway refused to build.
	buildRejects int64
	sampleReq    []byte
	samplePkt    []byte
}

// counts are exact tallies that must repeat for a fixed seed and round count.
type counts struct {
	Conforming    int64             `json:"conforming"`
	Delivered     int64             `json:"delivered"`
	Hostile       [numHostile]int64 `json:"hostile"`
	SetupsGranted int64             `json:"setups_granted"`
	SetupsRefused int64             `json:"setups_refused"`
	RefusedWanted int64             `json:"refused_expected"`
	Renewals      int64             `json:"renewals"`
	WaveItems     int64             `json:"wave_items"`
	Waves         int64             `json:"waves"`
	Maintained    int64             `json:"session_renewals"`
}

// installer is the cserv.GatewayInstaller the fleet drives: the real
// gateway, with installs counted (a wave's size) and, in traced rounds,
// timed.
type installer struct {
	gw        *gateway.Gateway
	installs  int64
	demotions int64
	timed     bool
	ns        int64
}

func (i *installer) Install(res packet.ResInfo, eer packet.EERInfo, path []packet.HopField, auths []cryptoutil.Key) error {
	i.installs++
	if !i.timed {
		return i.gw.Install(res, eer, path, auths)
	}
	t0 := time.Now()
	err := i.gw.Install(res, eer, path, auths)
	i.ns += int64(time.Since(t0))
	return err
}

func (i *installer) Demote(resID uint32) bool {
	i.demotions++
	return i.gw.Demote(resID)
}

func (i *installer) Promote(resID uint32) bool { return i.gw.Promote(resID) }

func (w *world) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < 8 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// newWorld builds the network and establishes the populations: the part of
// a run that setup_s times. With a recorder, every AS's transport is
// wrapped in the span recorder and the harness gets its own gateway and
// router workers for the traced packet walk.
func newWorld(sp spec, seed int64, rec *recorder) (*world, error) {
	w := &world{
		sp:    sp,
		rng:   rand.New(rand.NewSource(seed)),
		churn: make(map[int][]*cserv.EERGrant),
		rec:   rec,
		// Churn and fleet EERs get host pairs of their own.
		nextHost: 1000,
	}
	opts := core.Options{
		EnableReplaySuppression: true,
		EnableOFD:               true,
		RateLimit:               1 << 30,
		CPlaneShards:            cplaneShards,
	}
	if rec != nil {
		opts.WrapTransport = func(_ topology.IA, inner cserv.Transport) cserv.Transport {
			return &tracedTransport{inner: inner, w: w}
		}
	}
	net, err := core.NewNetwork(topology.TwoISD(topology.LinkSpec{}), opts)
	if err != nil {
		return nil, err
	}
	w.net = net
	if err := net.AutoSetupSegRs(segRKbps); err != nil {
		return nil, fmt.Errorf("SegR mesh: %w", err)
	}
	w.cs, w.gw = net.Node(srcIA).CServ, net.Node(srcIA).Gateway
	if w.src, err = net.AddHost(srcIA, 1); err != nil {
		return nil, err
	}
	if w.dst, err = net.AddHost(dstIA, 2); err != nil {
		return nil, err
	}
	w.inst = &installer{gw: w.gw}
	for i := 0; i < sp.parts; i++ {
		w.fleets = append(w.fleets, cserv.NewKeeperFleet(w.cs))
	}

	w.payload = make([]byte, sp.payload)
	w.rng.Read(w.payload)
	w.perm = w.rng.Perm(sp.sessions)
	h := fnv.New64a()
	for _, p := range w.perm {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	w.digest = h.Sum64()

	// Staggered establishment. Churn cohorts that the first renewAge rounds
	// will renew are set up here too, so the request station runs its full
	// mix from the first timed round.
	for c := 0; c < sp.cohorts; c++ {
		for i := c * sp.sessions / sp.cohorts; i < (c+1)*sp.sessions/sp.cohorts; i++ {
			s, err := w.src.RequestEER(w.dst, sp.sessKbps)
			if err != nil {
				return nil, fmt.Errorf("session %d: %w", i, err)
			}
			w.sessions = append(w.sessions, s)
		}
		for i := c * sp.fleet / sp.cohorts; i < (c+1)*sp.fleet/sp.cohorts; i++ {
			g, err := w.requestEER(1)
			if err != nil {
				return nil, fmt.Errorf("fleet EER %d: %w", i, err)
			}
			if w.path == nil {
				for _, hop := range g.PathHops {
					w.path = append(w.path, hop.IA)
				}
			}
			w.fleets[i%sp.parts].Add(cserv.NewEERKeeper(w.cs, w.inst, g, keeperLead))
		}
		if k := c - (sp.cohorts - sp.renewAge); k >= 0 {
			// Round k renews this cohort, renewAge rounds after its setup.
			for i := 0; i < sp.churnPerRound; i++ {
				if i%overCapEvery == overCapEvery-1 {
					continue // the slots a round spends on refusals
				}
				g, err := w.requestEER(w.churnKbps())
				if err != nil {
					return nil, fmt.Errorf("churn EER: %w", err)
				}
				w.churn[k] = append(w.churn[k], g)
			}
		}
		// Cohort c is established at second c. A round's housekeeping, requests
		// and waves run at its first instant, and round 0 begins roundSecs after
		// the last cohort, so round r finds exactly cohort r inside the
		// keepers' lead window.
		step := int64(1e9)
		if c == sp.cohorts-1 {
			step *= int64(sp.roundSecs)
		}
		net.Clock.Advance(step)
		net.Tick()
	}
	// The packet station's pacing must keep every session under 80 % of its
	// rate and fit the burst into the round, or the gateway polices it.
	wire := float64(packet.DataLen(len(w.path), sp.payload))
	gapS := float64(sp.sessions) * float64(sp.pktStepNs) / 1e9
	if wire*8/gapS > 0.8*float64(sp.sessKbps)*1000 || int64(sp.pktsPerRound)*sp.pktStepNs > int64(sp.roundSecs)*1e9 {
		return nil, fmt.Errorf("%s: %d packets of %.0f bytes every %d ns over %d sessions of %d kbps exceed the pacing", sp.name, sp.pktsPerRound, wire, sp.pktStepNs, sp.sessions, sp.sessKbps)
	}

	if rec != nil {
		w.gwW = w.gw.NewWorker()
		w.rtW = make(map[topology.IA]*router.Worker, len(w.path))
		for _, ia := range w.path {
			w.rtW[ia] = net.Node(ia).Router.NewWorker()
		}
		w.walkBuf = make([]byte, packet.DataLen(len(w.path), sp.payload)+64)
	}
	w.samplePkt = w.sessions[0].Grant().Stamp(w.payload, net.Clock.NowNs(), false)
	return w, nil
}

// askEER requests an EER between a fresh host pair at the source CServ.
func (w *world) askEER(kbps uint64) (*cserv.EERGrant, error) {
	w.nextHost++
	return w.cs.RequestEER(w.nextHost, 1<<24|w.nextHost, dstIA, kbps)
}

// requestEER sets up and installs one EER — what core.Host.RequestEER
// does, for the populations that are not sessions.
func (w *world) requestEER(kbps uint64) (*cserv.EERGrant, error) {
	g, err := w.askEER(kbps)
	if err != nil {
		return nil, err
	}
	return g, w.gw.Install(g.Res, g.EER, g.Path, g.HopAuths)
}

func (w *world) churnKbps() uint64 { return uint64(1 + w.rng.Intn(8)) }

func (w *world) pathPos(ia topology.IA) uint8 {
	for i, p := range w.path {
		if p == ia {
			return uint8(i)
		}
	}
	return 0xff
}

// nextSession cycles the seeded permutation: every session sends at an
// even spacing, so the gateway's token buckets (which hold about one
// packet at these rates) never see a burst.
func (w *world) nextSession() *core.Session {
	s := w.sessions[w.perm[w.cursor]]
	if w.cursor++; w.cursor == len(w.perm) {
		w.cursor = 0
	}
	return s
}

// stampPayload writes the next sequence number into the shared payload
// buffer, so every delivered payload is distinguishable.
func (w *world) stampPayload() []byte {
	w.seq++
	if len(w.payload) >= 8 {
		binary.LittleEndian.PutUint64(w.payload, w.seq)
	}
	return w.payload
}

// checkDelivered verifies that exactly one more packet reached the
// destination host and that its payload is byte-identical.
func (w *world) checkDelivered(before int, payload []byte) {
	d := w.dst
	switch {
	case d.Received != before+1:
		w.fail("conforming packet %d: delivered count went %d → %d", w.seq, before, d.Received)
		return
	case !bytes.Equal(d.Inbox[len(d.Inbox)-1], payload):
		w.fail("conforming packet %d: payload differs on delivery", w.seq)
		return
	}
	w.counts.Delivered++
	if len(d.Inbox) >= inboxKeep {
		d.Inbox = d.Inbox[:0]
	}
}

// sendPlain is the untraced packet op: Session.Send, timed from the call
// to the return, which is after delivery at the destination host.
func (w *world) sendPlain(s *core.Session, h *series) {
	payload := w.stampPayload()
	before := w.dst.Received
	w.attempted++
	w.counts.Conforming++
	t0 := time.Now()
	err := s.Send(payload)
	h.record(int64(time.Since(t0)))
	if err != nil {
		w.fail("conforming packet %d: %v", w.seq, err)
		return
	}
	w.checkDelivered(before, payload)
}

// sendHostile spends a packet slot on an adversary: a forged packet, a
// byte-exact replay, or a stale one, injected past the gateway. None may be
// delivered. The replay needs a conforming original, which is stamped with
// valid HVFs and injected first (and must arrive).
func (w *world) sendHostile(s *core.Session, traced bool) {
	kind := (w.slot / w.sp.hostileEvery) % numHostile
	now := w.net.Clock.NowNs()
	grant := s.Grant()
	payload := w.stampPayload()
	var buf []byte
	switch kind {
	case hostileBadHVF:
		buf = grant.Stamp(payload, now, true)
	case hostileStale:
		buf = grant.Stamp(payload, now-staleNs, false)
	case hostileReplay:
		orig := grant.Stamp(payload, now, false)
		// Routers advance the hop pointer in place: copy before injecting.
		buf = append([]byte(nil), orig...)
		before := w.dst.Received
		w.attempted++
		w.counts.Conforming++
		if err := w.net.InjectPacket(orig, srcIA); err != nil {
			w.fail("replay original %d: %v", w.seq, err)
		} else {
			w.checkDelivered(before, payload)
		}
	}
	before := w.dst.Received
	w.attempted++
	w.counts.Hostile[kind]++
	var err error
	if traced {
		err = w.dropTraced(buf)
	} else {
		err = w.net.InjectPacket(buf, srcIA)
	}
	if err == nil || w.dst.Received != before {
		w.fail("hostile packet (%s) was delivered", hostileNames[kind])
	}
}

// packetStation sends one slice of the round's packets, paced at pktStepNs
// of virtual time per packet, which keeps every session under its reserved
// rate: the round's packets are one burst in virtual time, whatever runs
// between its slices. In a traced round one packet in four takes the traced
// walk.
func (w *world) packetStation(part int, m *meter, traced bool) {
	lo, hi := w.sp.slice(w.sp.pktsPerRound, part)
	for i := lo; i < hi; i++ {
		w.net.Clock.Advance(w.sp.pktStepNs)
		s := w.nextSession()
		w.slot++
		switch {
		case w.sp.hostileEvery > 0 && w.slot%w.sp.hostileEvery == 0:
			w.sendHostile(s, traced)
		case traced && i%4 == 0:
			w.sendTraced(s, &m.tracedPkt)
		default:
			w.sendPlain(s, &m.pkt)
		}
	}
	m.pkt.flush()
}

// housekeeping is what runs at the start of a round outside the timed ops:
// Network.Tick and every session's keep-alive. A traced round replays
// Network.Tick as its per-AS calls, a span around each.
func (w *world) housekeeping(traced bool) {
	if traced {
		now := w.net.Clock.NowSec()
		for _, ia := range w.net.Topo.SortedIAs() {
			node := w.net.Node(ia)
			i := w.rec.begin(spCServTick)
			node.CServ.Tick()
			w.rec.end(i)
			i = w.rec.begin(spGwExpire)
			node.Gateway.Expire(now)
			w.rec.end(i)
		}
	} else {
		w.net.Tick()
	}
	now := w.net.Clock.NowSec()
	for i, s := range w.sessions {
		due := s.ExpiresAt() <= now+keeperLead
		if err := s.Maintain(keeperLead); err != nil || s.Demoted() {
			w.fail("session %d keep-alive: err=%v demoted=%v", i, err, s.Demoted())
		}
		if due {
			w.attempted++
			w.counts.Maintained++
		}
	}
}

// drawTape draws the round's seeded op tape for the source CServ: setups
// (one in overCapEvery over capacity, which must be refused) and solo
// renewals of the cohort that is renewAge rounds old. Each EER is renewed at
// most once, so the CServ's one-renewal-per-second throttle never fires.
func (w *world) drawTape(round int) {
	w.due, w.fresh = w.churn[round], nil
	delete(w.churn, round)
	w.tape = w.tape[:0]
	for i := 0; i < w.sp.churnPerRound; i++ {
		w.tape = append(w.tape, 0)
	}
	for range w.due {
		w.tape = append(w.tape, 1)
	}
	w.rng.Shuffle(len(w.tape), func(i, j int) { w.tape[i], w.tape[j] = w.tape[j], w.tape[i] })
	h := fnv.New64a()
	h.Write(w.tape)
	w.digest = w.digest*1099511628211 ^ h.Sum64()
}

// requestStation runs one slice of the round's tape.
func (w *world) requestStation(part int, m *meter, traced bool) {
	lo, hi := w.sp.slice(len(w.tape), part)
	for _, op := range w.tape[lo:hi] {
		if op == 1 {
			w.renewOne(w.due[0], m, traced)
			w.due = w.due[1:]
			continue
		}
		if w.rng.Intn(overCapEvery) == 0 {
			w.refusedSetup()
			continue
		}
		if g := w.setupOne(m, traced); g != nil {
			w.fresh = append(w.fresh, g)
		}
	}
	m.setup.flush()
	m.renew.flush()
}

// requestOp runs one control-plane op — the request at the source CServ,
// then Install at the gateway — timed as a whole into plain, or under spans
// with the op's outermost span into tracedH.
func (w *world) requestOp(name spanName, request func() (*cserv.EERGrant, error), plain *series, tracedH *hist, traced bool) (g *cserv.EERGrant, err error) {
	w.attempted++
	if !traced {
		t0 := time.Now()
		if g, err = request(); err == nil {
			err = w.gw.Install(g.Res, g.EER, g.Path, g.HopAuths)
		}
		plain.record(int64(time.Since(t0)))
		return g, err
	}
	op := w.rec.beginOp(name)
	i := w.rec.begin(spRequest)
	g, err = request()
	w.rec.end(i)
	if err == nil {
		i = w.rec.begin(spInstall)
		err = w.gw.Install(g.Res, g.EER, g.Path, g.HopAuths)
		w.rec.end(i)
	}
	w.rec.endOp(op)
	tracedH.record(w.rec.spans[op].end - w.rec.spans[op].start)
	return g, err
}

// setupOne is the setup op: RequestEER through every on-path CServ, then
// Install at the gateway — host asks → host may send.
func (w *world) setupOne(m *meter, traced bool) *cserv.EERGrant {
	kbps := w.churnKbps()
	g, err := w.requestOp(spSetup, func() (*cserv.EERGrant, error) { return w.askEER(kbps) }, &m.setup, &m.tracedSetup, traced)
	if err != nil {
		w.fail("in-capacity setup of %d kbps: %v", kbps, err)
		return nil
	}
	w.counts.SetupsGranted++
	return g
}

// refusedSetup asks for more than the SegRs hold; anything but a refusal
// is a failure.
func (w *world) refusedSetup() {
	w.attempted++
	w.counts.RefusedWanted++
	_, err := w.askEER(overCapKbps)
	switch {
	case err == nil:
		w.fail("over-capacity setup of %d kbps was granted", overCapKbps)
	case !errors.Is(err, cserv.ErrRefused):
		w.fail("over-capacity setup: %v", err)
	default:
		w.counts.SetupsRefused++
	}
}

// renewOne is the solo renewal op: RenewEER + Install.
func (w *world) renewOne(prev *cserv.EERGrant, m *meter, traced bool) {
	kbps := uint64(prev.Res.BwKbps)
	g, err := w.requestOp(spRenew, func() (*cserv.EERGrant, error) { return w.cs.RenewEER(prev, kbps) }, &m.renew, &m.tracedRenew, traced)
	switch {
	case err != nil:
		w.fail("renewal of %s: %v", prev.ID, err)
	case uint64(g.Res.BwKbps) != kbps:
		w.fail("renewal of %s granted %d of %d kbps", prev.ID, g.Res.BwKbps, kbps)
	default:
		w.counts.Renewals++
	}
}

// waveStation ticks one fleet: every keeper of it within the lead window
// renews in one batched wave. It returns how many renewed and how many
// attempts failed.
func (w *world) waveStation(part int, m *meter, traced bool) (renewed int64, failed int) {
	before := w.inst.installs
	w.inst.timed, w.inst.ns = traced, 0
	var ns int64
	if traced {
		op := w.rec.beginOp(spWave)
		failed = w.fleets[part].Tick()
		w.rec.endOp(op)
		ns = w.rec.spans[op].end - w.rec.spans[op].start
	} else {
		t0 := time.Now()
		failed = w.fleets[part].Tick()
		ns = int64(time.Since(t0))
	}
	w.inst.timed = false
	renewed = w.inst.installs - before
	if renewed == 0 {
		return 0, failed
	}
	w.counts.Waves++
	w.counts.WaveItems += renewed
	wv := wave{items: renewed, ns: ns, installNs: w.inst.ns}
	if traced {
		m.tracedWaves = append(m.tracedWaves, wv)
	} else {
		m.waves = append(m.waves, wv)
	}
	return renewed, failed
}

// round runs one round: housekeeping at its first instant, then the slices
// (requests, a wave, packets), then the clock moves to the round's end.
// Between them the waves must renew the round's due cohort completely.
func (w *world) round(round int, m *meter, traced bool) {
	w.housekeeping(traced)
	w.drawTape(round)
	var renewed int64
	var failed int
	for part := 0; part < w.sp.parts; part++ {
		w.requestStation(part, m, traced)
		n, f := w.waveStation(part, m, traced)
		renewed, failed = renewed+n, failed+f
		w.packetStation(part, m, traced)
	}
	w.churn[round+w.sp.renewAge] = w.fresh
	w.net.Clock.Advance(int64(w.sp.roundSecs)*1e9 - int64(w.sp.pktsPerRound)*w.sp.pktStepNs)

	c := round % w.sp.cohorts
	want := int64((c+1)*w.sp.fleet/w.sp.cohorts - c*w.sp.fleet/w.sp.cohorts)
	w.attempted += want
	if failed != 0 || renewed != want {
		w.fail("waves in round %d: %d of %d renewed, %d failed", round, renewed, want, failed)
	}
}
