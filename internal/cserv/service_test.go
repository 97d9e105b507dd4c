package cserv

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/drkey"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

func ia(isd topology.ISD, as topology.ASID) topology.IA { return topology.MustIA(isd, as) }

// fabric wires all CServs and key servers of a topology in-process.
type fabric struct {
	topo     *topology.Topology
	reg      *segment.Registry
	dir      *Directory
	services map[topology.IA]*Service
	keySrvs  map[topology.IA]*drkey.Server
	clock    atomic.Uint32
	// keyQueries counts the requests the key servers answered.
	keyQueries atomic.Int64
}

func (f *fabric) Call(dst topology.IA, msg []byte) ([]byte, error) {
	s, ok := f.services[dst]
	if !ok {
		return nil, errors.New("fabric: no CServ at " + dst.String())
	}
	return s.HandleMsg(msg)
}

func (f *fabric) QueryKeyServer(dst topology.IA, req []byte) ([]byte, error) {
	ks, ok := f.keySrvs[dst]
	if !ok {
		return nil, errors.New("fabric: no key server at " + dst.String())
	}
	f.keyQueries.Add(1)
	return ks.Handle(req)
}

func (f *fabric) now() uint32 { return f.clock.Load() }

const t0 = uint32(1_700_000_000)

// newFabric builds services for every AS of the topology.
func newFabric(t testing.TB, topo *topology.Topology, mutate func(ia topology.IA, cfg *Config)) *fabric {
	t.Helper()
	return epochFabric(t, topo, 0, mutate)
}

// epochFabric is newFabric with DRKey epochs of epochSecs seconds (0 for the
// default day).
func epochFabric(t testing.TB, topo *topology.Topology, epochSecs uint32, mutate func(ia topology.IA, cfg *Config)) *fabric {
	t.Helper()
	f := &fabric{
		topo:     topo,
		reg:      segment.Discover(topo, segment.DiscoverOpts{}),
		dir:      NewDirectory(),
		services: make(map[topology.IA]*Service),
		keySrvs:  make(map[topology.IA]*drkey.Server),
	}
	f.clock.Store(t0)

	ids := make([]*drkey.Identity, 0, len(topo.ASes))
	engines := make(map[topology.IA]*drkey.Engine)
	for _, iaKey := range topo.SortedIAs() {
		id := drkey.NewIdentity(iaKey)
		ids = append(ids, id)
		engines[iaKey] = drkey.NewEngine(iaKey, drkey.RandomMaster(), epochSecs)
		f.keySrvs[iaKey] = drkey.NewServer(engines[iaKey], id)
	}
	trust := drkey.NewTrustStore(ids...)
	for _, iaKey := range topo.SortedIAs() {
		cfg := Config{
			AS:        topo.AS(iaKey),
			Secret:    asSecret(iaKey),
			Engine:    engines[iaKey],
			Keys:      drkey.NewStore(iaKey, f, trust),
			Directory: f.dir,
			Transport: f,
			Clock:     f.now,
		}
		if mutate != nil {
			mutate(iaKey, &cfg)
		}
		f.services[iaKey] = New(cfg)
	}
	return f
}

// asSecret derives a deterministic per-AS data-plane secret for tests.
func asSecret(iaKey topology.IA) cryptoutil.Key {
	var k cryptoutil.Key
	k[0] = byte(iaKey >> 48)
	k[1] = byte(iaKey)
	k[15] = 0x5a
	return k
}

func twoISDFabric(t testing.TB, mutate func(ia topology.IA, cfg *Config)) *fabric {
	return newFabric(t, topology.TwoISD(topology.LinkSpec{}), mutate)
}

// setupAllSegRs creates the up-, core-, and down-SegRs covering
// 1-11 → 2-11 on the TwoISD topology and returns them.
func (f *fabric) setupAllSegRs(t testing.TB, bwKbps uint64) (up, core, down *reservation.SegR) {
	t.Helper()
	upSeg := f.reg.UpSegments(ia(1, 11))[0]
	coreSeg := f.reg.CoreSegments(ia(1, 1), ia(2, 1))[0]
	downSeg := f.reg.DownSegments(ia(2, 11))[0]

	var err error
	up, err = f.services[ia(1, 11)].SetupSegment(upSeg, 0, bwKbps)
	if err != nil {
		t.Fatalf("up SegR: %v", err)
	}
	core, err = f.services[ia(1, 1)].SetupSegment(coreSeg, 0, bwKbps)
	if err != nil {
		t.Fatalf("core SegR: %v", err)
	}
	down, err = f.services[ia(2, 1)].SetupSegment(downSeg, 0, bwKbps)
	if err != nil {
		t.Fatalf("down SegR: %v", err)
	}
	return up, core, down
}

// eerRecord returns what the CServ at hop idx of g's path holds for g's EER: the
// record under the hop's first covering SegR.
func (f *fabric) eerRecord(g *EERGrant, idx int) (bwKbps uint64, ver uint16, expT uint32, ok bool) {
	k := coveringSegs(nil, len(g.SegIDs), g.Splits, len(g.PathHops), idx)[0]
	return f.services[g.PathHops[idx].IA].CPlane().LookupEER(g.ID, g.SegIDs[k])
}

func TestSegmentSetup(t *testing.T) {
	f := twoISDFabric(t, nil)
	seg := f.reg.UpSegments(ia(1, 11))[0] // 1-11 → 1-2 → 1-1
	segr, err := f.services[ia(1, 11)].SetupSegment(seg, 1000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if segr.Active.BwKbps != 50_000 {
		t.Errorf("granted %d kbps", segr.Active.BwKbps)
	}
	if len(segr.Tokens) != seg.Len() {
		t.Errorf("%d tokens for %d hops", len(segr.Tokens), seg.Len())
	}
	// Every on-path AS stores the reservation at the final bandwidth.
	for _, h := range seg.Hops {
		r, err := f.services[h.IA].Store().GetSegR(segr.ID)
		if err != nil {
			t.Fatalf("AS %s has no SegR: %v", h.IA, err)
		}
		if r.Active.BwKbps != 50_000 || r.Active.Ver != 1 {
			t.Errorf("AS %s stored %+v", h.IA, r.Active)
		}
	}
	// The token matches the on-path AS's own Eq. 3 computation.
	res := &packet.ResInfo{SrcAS: segr.ID.SrcAS, ResID: segr.ID.Num,
		BwKbps: 50_000, ExpT: segr.Active.ExpT, Ver: 1}
	midAS := seg.Hops[1]
	want := f.services[midAS.IA].segToken(res, packet.HopField{In: midAS.In, Eg: midAS.Eg})
	if segr.Tokens[1] != want {
		t.Error("returned token does not match on-path computation")
	}
	// Registered in the directory.
	if f.dir.Len() != 1 {
		t.Errorf("directory has %d offers", f.dir.Len())
	}
}

func TestSegmentSetupMinRefused(t *testing.T) {
	f := twoISDFabric(t, nil)
	seg := f.reg.UpSegments(ia(1, 11))[0]
	// The access link is 40 Gbps with 75% reservable = 30 Gbps; demanding
	// a 35 Gbps minimum must fail, leaving no state anywhere.
	_, err := f.services[ia(1, 11)].SetupSegment(seg, 35_000_000, 35_000_000)
	if err == nil {
		t.Fatal("over-capacity minimum granted")
	}
	for _, h := range seg.Hops {
		segs := f.services[h.IA].CPlane().Counts().SegRs
		if segs != 0 {
			t.Errorf("AS %s kept %d temporary SegRs after failure", h.IA, segs)
		}
	}
}

func TestSegmentRenewalAndActivation(t *testing.T) {
	f := twoISDFabric(t, nil)
	seg := f.reg.UpSegments(ia(1, 11))[0]
	src := f.services[ia(1, 11)]
	segr, err := src.SetupSegment(seg, 0, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	ver, final, err := src.RenewSegment(segr.ID, 0, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 || final != 40_000 {
		t.Fatalf("renewal: ver=%d final=%d", ver, final)
	}
	// Pending everywhere, active unchanged.
	for _, h := range seg.Hops {
		r, _ := f.services[h.IA].Store().GetSegR(segr.ID)
		if r.Active.BwKbps != 20_000 || r.Pending == nil || r.Pending.BwKbps != 40_000 {
			t.Fatalf("AS %s state: active %+v pending %+v", h.IA, r.Active, r.Pending)
		}
	}
	if err := src.ActivateSegment(segr.ID, ver); err != nil {
		t.Fatal(err)
	}
	for _, h := range seg.Hops {
		r, _ := f.services[h.IA].Store().GetSegR(segr.ID)
		if r.Active.BwKbps != 40_000 || r.Active.Ver != 2 || r.Pending != nil {
			t.Fatalf("AS %s after activation: %+v", h.IA, r)
		}
	}
}

func TestEERSetupEndToEnd(t *testing.T) {
	f := twoISDFabric(t, nil)
	f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	grant, err := src.RequestEER(0x0a000001, 0x14000001, ia(2, 11), 8_000)
	if err != nil {
		t.Fatal(err)
	}
	if grant.Res.BwKbps != 8_000 {
		t.Errorf("final bw = %d", grant.Res.BwKbps)
	}
	if len(grant.Path) != 5 || len(grant.HopAuths) != 5 {
		t.Fatalf("path %d hops, %d hop auths", len(grant.Path), len(grant.HopAuths))
	}
	// Each σ_i matches the on-path AS's own Eq. 4 computation.
	for i, ph := range grant.PathHops {
		svc := f.services[ph.IA]
		want := svc.hopAuth(&grant.Res, &grant.EER, packet.HopField{In: ph.In, Eg: ph.Eg})
		if grant.HopAuths[i] != want {
			t.Errorf("hop %d (%s): σ mismatch", i, ph.IA)
		}
	}
	// Every on-path AS accounts the EER against its SegRs.
	for i, ph := range grant.PathHops {
		if bw, ver, expT, ok := f.eerRecord(grant, i); !ok || bw != 8_000 || ver != 1 || expT != grant.Res.ExpT {
			t.Errorf("AS %s EER record: %d kbps ver %d until %d (found %v)", ph.IA, bw, ver, expT, ok)
		}
	}
}

func TestEERRenewVersions(t *testing.T) {
	f := twoISDFabric(t, nil)
	f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	g1, err := src.RequestEER(1, 2, ia(2, 11), 8_000)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := src.RenewEER(g1, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Res.Ver != 2 || g2.Res.BwKbps != 12_000 {
		t.Fatalf("renewed grant: %+v", g2.Res)
	}
	// A transit AS (hop 1 is 1-2) holds the new version, and the two versions
	// share one budget: the larger, not the sum.
	if bw, ver, _, ok := f.eerRecord(g2, 1); !ok || ver != 2 || bw != 12_000 {
		t.Fatalf("transit AS record: %d kbps ver %d (found %v)", bw, ver, ok)
	}
	if got, _ := f.services[ia(1, 2)].CPlane().SegDemandMax(g2.SegIDs[0]); got != 12_000 {
		t.Errorf("demand on the up-SegR at the transit AS = %d", got)
	}
}

// TestDownwardRenewalChargesNewVersionOnly pins §4.2 on the books: every
// unexpired version of an EER stays usable, so what an EER can send is the
// maximum over its valid versions. After a renewal from 12 to 1 Mbps version
// 1's hop authenticators stay valid at the stateless routers until its own
// ExpT, so every CServ on the path keeps 12 Mbps charged until then — as the
// record's held piece — and charges the new version's 1 Mbps only after that;
// Tick drops the held piece once it has lapsed. (Until the repair, renewRec
// replaced the charge and the ledgers read 1 000 at once: 11 Mbps the source
// could still send, handed out as free.)
func TestDownwardRenewalChargesNewVersionOnly(t *testing.T) {
	f := twoISDFabric(t, nil)
	f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	g1, err := src.RequestEER(1, 2, ia(2, 11), 12_000)
	if err != nil {
		t.Fatal(err)
	}
	f.clock.Add(1)
	g2, err := src.RenewEER(g1, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Res.ExpT <= f.now() || g2.Res.BwKbps != 1_000 {
		t.Fatalf("version 1 valid until %d (now %d), version 2 at %d kbps", g1.Res.ExpT, f.now(), g2.Res.BwKbps)
	}
	demands := func(when string, want uint64) {
		t.Helper()
		for i, ph := range g2.PathHops {
			s := f.services[ph.IA]
			s.Tick()
			k := coveringSegs(nil, len(g2.SegIDs), g2.Splits, len(g2.PathHops), i)[0]
			if d, _ := s.CPlane().SegDemandMax(g2.SegIDs[k]); d != want {
				t.Errorf("%s: AS %s charges %d kbps, want %d", when, ph.IA, d, want)
			}
			if held := s.cp.shardFor(g2.SegIDs[k]).held.Len(); (held == 1) != (want == 12_000) {
				t.Errorf("%s: AS %s holds %d pieces", when, ph.IA, held)
			}
		}
	}
	demands("while version 1 is valid", 12_000)
	f.clock.Store(g1.Res.ExpT - 1)
	demands("the last second of version 1", 12_000)
	f.clock.Store(g1.Res.ExpT)
	demands("once version 1 has lapsed", 1_000)
}

func TestEERInsufficientSegRRolledBack(t *testing.T) {
	f := twoISDFabric(t, nil)
	// Core SegR is the bottleneck: 10 Mbps only.
	upSeg := f.reg.UpSegments(ia(1, 11))[0]
	coreSeg := f.reg.CoreSegments(ia(1, 1), ia(2, 1))[0]
	downSeg := f.reg.DownSegments(ia(2, 11))[0]
	if _, err := f.services[ia(1, 11)].SetupSegment(upSeg, 0, 100_000); err != nil {
		t.Fatal(err)
	}
	if _, err := f.services[ia(1, 1)].SetupSegment(coreSeg, 0, 10_000); err != nil {
		t.Fatal(err)
	}
	if _, err := f.services[ia(2, 1)].SetupSegment(downSeg, 0, 100_000); err != nil {
		t.Fatal(err)
	}
	src := f.services[ia(1, 11)]
	// First EER takes 8 of the 10 Mbps.
	if _, err := src.RequestEER(1, 2, ia(2, 11), 8_000); err != nil {
		t.Fatal(err)
	}
	// Second cannot fit 8 Mbps anywhere (core exhausted): refused.
	if _, err := src.RequestEER(3, 4, ia(2, 11), 8_000); err == nil {
		t.Fatal("over-committing EER accepted")
	}
	// No residual versions of the failed EER linger at the early hops.
	for _, iaKey := range []topology.IA{ia(1, 11), ia(1, 2), ia(1, 1)} {
		if eers := f.services[iaKey].CPlane().Counts().EERs; eers != 1 {
			t.Errorf("AS %s has %d EER records after rollback", iaKey, eers)
		}
	}
}

// answerOf reads what every control-plane response starts with.
func answerOf(b []byte) (code Refusal, at uint8) { return Refusal(b[0]), b[1] }

// segRsOf renders what s's store holds of the SegRs ids.
func segRsOf(s *Service, ids ...reservation.ID) string {
	out := fmt.Sprint(s.CPlane().Counts().SegRs)
	for _, id := range ids {
		if r, err := s.Store().GetSegR(id); err == nil {
			out += fmt.Sprintf(" %s:%+v", id, r.Active)
			if r.Pending != nil {
				out += fmt.Sprintf("→%+v", *r.Pending)
			}
		}
	}
	return out
}

// TestControlPlaneAuthRejected: every tag passes the same envelope at the AS
// that receives it. A message whose MAC towards that AS is forged is refused
// there with "authentication" before it touches anything — records, engine
// counters, ledgers, split books, SegR store — and counted in AuthFailures;
// with a budget of one message per source AS per second, the second genuine
// message of a second is refused "rate limited" and counted in RateLimited.
func TestControlPlaneAuthRejected(t *testing.T) {
	f := cpFabric(t, 4, func(_ topology.IA, cfg *Config) { cfg.RateLimit = 1 })
	up, core, down := f.setupAllSegRs(t, 100_000)
	src, leaf := f.services[ia(1, 11)], f.services[ia(2, 11)]
	f.clock.Add(1)
	g := requestEERs(t, src, 1, 1_000)[0]
	hop1 := f.services[g.PathHops[1].IA]
	segPath := HopsFromSegment(up.Seg)
	if segPath[1].IA != hop1.ia {
		t.Fatalf("the up-segment's hop 1 is %s, the EER path's %s", segPath[1].IA, hop1.ia)
	}
	// sign signs body as src towards every AS of path and, to forge, flips a bit
	// of the MAC towards the receiver: hop 1's, or a down request's only one.
	sign := func(src *Service, path []PathHop, body []byte, forge bool) [][cryptoutil.MACSize]byte {
		macs := signFor(t, src, path, body)
		if forge {
			macs[min(1, len(macs)-1)][0] ^= 1
		}
		return macs
	}
	for _, tc := range []struct {
		name string
		to   *Service
		at   uint8
		msg  func(forge bool) []byte
	}{
		{"1 SegR setup", hop1, 1, func(forge bool) []byte {
			req := SegSetupReq{ID: reservation.ID{SrcAS: src.ia, Num: 4242}, SegType: up.SegType, Path: segPath,
				MaxKbps: 1_000, AccumKbps: 1_000, ExpT: f.now() + reservation.SegRLifetimeSeconds, Ver: 1}
			req.Macs = sign(src, req.Path, req.Body(), forge)
			return req.Marshal()
		}},
		{"2 SegR renewal", hop1, 1, func(forge bool) []byte {
			req := SegSetupReq{ID: up.ID, SegType: up.SegType, Path: segPath, MaxKbps: 100_000, AccumKbps: 100_000,
				ExpT: f.now() + reservation.SegRLifetimeSeconds, Ver: up.Active.Ver + 1, Renewal: true}
			req.Macs = sign(src, req.Path, req.Body(), forge)
			return req.Marshal()
		}},
		{"3 SegR activation", hop1, 1, func(forge bool) []byte {
			req := SegActivateReq{ID: up.ID, Ver: up.Active.Ver + 1, Path: segPath}
			req.Macs = sign(src, req.Path, req.Body(), forge)
			return req.Marshal()
		}},
		{"4 EER setup", hop1, 1, func(forge bool) []byte {
			req := EESetupReq{ID: reservation.ID{SrcAS: src.ia, Num: 4243}, SegIDs: g.SegIDs, Splits: g.Splits, Path: g.PathHops,
				BwKbps: 1_000, AccumKbps: 1_000, ExpT: f.now() + reservation.EERLifetimeSeconds, Ver: 1, SrcHost: 9, DstHost: 2}
			req.Macs = sign(src, req.Path, req.Body(), forge)
			return req.Marshal()
		}},
		{"5 EER renewal", hop1, 1, func(forge bool) []byte {
			req := renewalOf(g, g.Res.Ver+1, 1_000, f.now())
			req.Macs = sign(src, req.Path, req.Body(), forge)
			return req.Marshal()
		}},
		{"6 down-SegR request", f.services[down.Seg.SrcIA()], 0, func(forge bool) []byte {
			req := DownSegReq{Requester: leaf.ia, Seg: HopsFromSegment(down.Seg), MaxKbps: 1_000}
			req.Mac = sign(leaf, req.Seg[:1], req.Body(), forge)[0]
			return req.Marshal()
		}},
		{"7 renewal wave", hop1, 1, func(forge bool) []byte {
			req := waveOf(renewalOf(g, g.Res.Ver+1, 1_000, f.now()))
			req.Macs = sign(src, req.Path, req.Body(), forge)
			return req.Marshal()
		}},
	} {
		f.clock.Add(1) // a fresh rate-limit window
		to := tc.to
		books, segRs := booksOf(to, up.ID, core.ID), segRsOf(to, up.ID, core.ID, down.ID)
		auth, limited := to.Metrics().AuthFailures.Value(), to.Metrics().RateLimited.Value()
		out, err := to.HandleMsg(tc.msg(true))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if code, at := answerOf(out); code != RefusedAuth || at != tc.at {
			t.Errorf("%s, forged: answer %v at hop %d, want an authentication failure at hop %d", tc.name, code, at, tc.at)
		}
		if got := to.Metrics().AuthFailures.Value(); got != auth+1 {
			t.Errorf("%s, forged: AuthFailures %d → %d, want +1", tc.name, auth, got)
		}
		if d := books.diff(booksOf(to, up.ID, core.ID)); d != "" {
			t.Errorf("%s, forged: the books changed: %s", tc.name, d)
		}
		if got := segRsOf(to, up.ID, core.ID, down.ID); got != segRs {
			t.Errorf("%s, forged: the SegR store changed:\n%s\n%s", tc.name, segRs, got)
		}
		// Genuine: the first of the second passes the envelope, the second does not.
		for i, wantLimited := range []bool{false, true} {
			out, err := to.HandleMsg(tc.msg(false))
			if err != nil {
				t.Fatalf("%s, genuine %d: %v", tc.name, i, err)
			}
			if code, _ := answerOf(out); (code == RefusedRateLimit) != wantLimited || code == RefusedAuth {
				t.Errorf("%s, genuine message %d of the second: %v, want rate limited %v", tc.name, i+1, code, wantLimited)
			}
		}
		if got := to.Metrics().RateLimited.Value(); got != limited+1 {
			t.Errorf("%s: RateLimited %d → %d, want +1", tc.name, limited, got)
		}
	}
}

// countingPolicy is AllowAll that counts the AllowEER questions it is asked.
type countingPolicy struct {
	AllowAll
	asked int
}

func (p *countingPolicy) AllowEER(uint32, reservation.ID, uint64, uint32) error {
	p.asked++
	return nil
}

// TestHopZeroOverWireRefused: a control message that arrives through
// HandleMsg and names the receiving AS as hop 0 of its path carries no MAC
// the AS could check — the genuine initiator never sends itself one. For
// every tag it must be refused like a bad MAC, before the host policy, the
// CPlane or the transport see anything of it; the initiator's own requests
// keep working.
func TestHopZeroOverWireRefused(t *testing.T) {
	victim := ia(1, 11)
	pol := &countingPolicy{}
	calls := 0
	f := twoISDFabric(t, func(iaKey topology.IA, cfg *Config) {
		if iaKey == victim {
			cfg.Policy = pol
			cfg.Transport = captureTransport{inner: cfg.Transport, keep: func([]byte) { calls++ }}
		}
	})
	up, _, _ := f.setupAllSegRs(t, 100_000)
	src := f.services[victim]
	g, err := src.RequestEER(1, 2, ia(2, 11), 1_000)
	if err != nil {
		t.Fatal(err)
	}

	// Well-formed in every respect but the MACs, which hop 0 never reads.
	seg := f.reg.UpSegments(victim)[0]
	segSetup := SegSetupReq{
		ID: reservation.ID{SrcAS: victim, Num: 4242}, SegType: seg.Type, Path: HopsFromSegment(seg),
		MaxKbps: 5_000, AccumKbps: 5_000, ExpT: t0 + reservation.SegRLifetimeSeconds, Ver: 1,
	}
	segSetup.Macs = make([][cryptoutil.MACSize]byte, len(segSetup.Path))
	segRenew := segSetup
	segRenew.ID, segRenew.Ver, segRenew.Renewal = up.ID, up.Active.Ver+1, true
	segActivate := SegActivateReq{ID: up.ID, Ver: up.Active.Ver, Path: segSetup.Path, Macs: segSetup.Macs}
	eeSetup := EESetupReq{
		ID: reservation.ID{SrcAS: victim, Num: 4243}, SegIDs: g.SegIDs, Splits: g.Splits, Path: g.PathHops,
		BwKbps: 5_000, AccumKbps: 5_000, ExpT: t0 + reservation.EERLifetimeSeconds, Ver: 1, SrcHost: 9, DstHost: 2,
		Macs: make([][cryptoutil.MACSize]byte, len(g.PathHops)),
	}
	eeRenew := eeSetup
	eeRenew.ID, eeRenew.Ver, eeRenew.ExpT, eeRenew.Renewal = g.ID, g.Res.Ver+1, g.Res.ExpT+4, true
	wave := EEBatchRenewReq{
		SegIDs: g.SegIDs, Splits: g.Splits, Path: g.PathHops, Macs: eeSetup.Macs,
		Items:  []EEBatchItem{{ID: g.ID, Ver: g.Res.Ver + 1, BwKbps: 5_000, ExpT: g.Res.ExpT + 4, SrcHost: 1, DstHost: 2}},
		Accums: []uint64{5_000}, Status: []Refusal{Granted},
	}

	segResp := func(b []byte) (Refusal, uint8, error) {
		r, err := UnmarshalSegSetupResp(b)
		if err != nil {
			return 0, 0, err
		}
		return r.Refusal, r.FailedAt, nil
	}
	eeResp := func(b []byte) (Refusal, uint8, error) {
		r, err := UnmarshalEESetupResp(b)
		if err != nil {
			return 0, 0, err
		}
		return r.Refusal, r.FailedAt, nil
	}
	waveResp := func(b []byte) (Refusal, uint8, error) {
		r, err := UnmarshalEEBatchRenewResp(b)
		if err != nil {
			return 0, 0, err
		}
		return r.Refusal, r.FailedAt, nil
	}
	for _, tc := range []struct {
		tag    byte
		msg    []byte
		decode func([]byte) (Refusal, uint8, error)
	}{
		{tagSegSetup, segSetup.Marshal(), segResp},
		{tagSegRenew, segRenew.Marshal(), segResp},
		{tagSegActivate, segActivate.Marshal(), segResp},
		{tagEESetup, eeSetup.Marshal(), eeResp},
		{tagEERenew, eeRenew.Marshal(), eeResp},
		{tagEEBatchRenew, wave.Marshal(), waveResp},
	} {
		if tc.msg[0] != tc.tag {
			t.Fatalf("tag %d: the encoder wrote tag %d", tc.tag, tc.msg[0])
		}
		counts := src.CPlane().Counts()
		upMax, _ := src.CPlane().SegDemandMax(up.ID)
		auth, asked, sent := src.Metrics().AuthFailures.Value(), pol.asked, calls

		out, err := src.HandleMsg(tc.msg)
		if err != nil {
			t.Fatalf("tag %d: %v", tc.tag, err)
		}
		code, at, err := tc.decode(out)
		if err != nil {
			t.Fatalf("tag %d: answer does not parse: %v", tc.tag, err)
		}
		if code != RefusedAuth || at != 0 {
			t.Errorf("tag %d: answer %v at hop %d, want an authentication failure at hop 0", tc.tag, code, at)
		}
		if got := src.CPlane().Counts(); got != counts {
			t.Errorf("tag %d: CPlane counts %+v, were %+v", tc.tag, got, counts)
		}
		if got, _ := src.CPlane().SegDemandMax(up.ID); got != upMax {
			t.Errorf("tag %d: demand on %s is %d kbps, was %d", tc.tag, up.ID, got, upMax)
		}
		if pol.asked != asked {
			t.Errorf("tag %d: the host policy was consulted", tc.tag)
		}
		if calls != sent {
			t.Errorf("tag %d: %d messages went downstream", tc.tag, calls-sent)
		}
		if got := src.Metrics().AuthFailures.Value(); got != auth+1 {
			t.Errorf("tag %d: AuthFailures %d → %d, want +1", tc.tag, auth, got)
		}
	}

	// The initiator itself is hop 0 of everything it starts.
	f.clock.Store(t0 + 4)
	if _, err := src.SetupSegment(seg, 0, 1_000); err != nil {
		t.Errorf("own SetupSegment: %v", err)
	}
	g2, err := src.RequestEER(3, 2, ia(2, 11), 1_000)
	if err != nil {
		t.Fatalf("own RequestEER: %v", err)
	}
	if _, err := src.RenewEER(g, 2_000); err != nil {
		t.Errorf("own RenewEER: %v", err)
	}
	if _, errs := src.RenewEERBatch([]*EERGrant{g2}, []uint64{2_000}); errs[0] != nil {
		t.Errorf("own RenewEERBatch: %v", errs[0])
	}
}

func TestRateLimiting(t *testing.T) {
	f := twoISDFabric(t, func(iaKey topology.IA, cfg *Config) {
		cfg.RateLimit = 2
	})
	seg := f.reg.UpSegments(ia(1, 11))[0]
	src := f.services[ia(1, 11)]
	ok, limited := 0, 0
	for i := 0; i < 4; i++ {
		if _, err := src.SetupSegment(seg, 0, 1000); err != nil {
			if errors.Is(err, RefusedRateLimit) {
				limited++
			} else {
				t.Fatal(err)
			}
		} else {
			ok++
		}
	}
	if ok != 2 || limited != 2 {
		t.Errorf("ok=%d limited=%d, want 2/2", ok, limited)
	}
	// Next second the budget refreshes.
	f.clock.Store(t0 + 1)
	if _, err := src.SetupSegment(seg, 0, 1000); err != nil {
		t.Errorf("after window turnover: %v", err)
	}
}

func TestHostPolicyEnforced(t *testing.T) {
	f := twoISDFabric(t, func(iaKey topology.IA, cfg *Config) {
		if iaKey == ia(1, 11) {
			cfg.Policy = &HostCapPolicy{DefaultCapKbps: 10_000}
		}
	})
	f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	if _, err := src.RequestEER(7, 2, ia(2, 11), 8_000); err != nil {
		t.Fatal(err)
	}
	if _, err := src.RequestEER(7, 2, ia(2, 11), 8_000); err == nil {
		t.Fatal("host exceeded its cap")
	}
	// A different host is unaffected.
	if _, err := src.RequestEER(8, 2, ia(2, 11), 8_000); err != nil {
		t.Errorf("other host blocked: %v", err)
	}
}

// refuseHost99 is a destination that vetoes every EER to its host 99.
func refuseHost99(_ reservation.ID, _, dstHost uint32, _ uint64, _ uint32) bool { return dstHost != 99 }

// hostCapFabric caps every host of 1-11 at 10 Mbps; 2-11 vetoes destination
// host 99.
func hostCapFabric(t *testing.T) (*fabric, *HostCapPolicy) {
	pol := &HostCapPolicy{DefaultCapKbps: 10_000}
	f := twoISDFabric(t, func(iaKey topology.IA, cfg *Config) {
		switch iaKey {
		case ia(1, 11):
			cfg.Policy = pol
		case ia(2, 11):
			cfg.DstApprove = refuseHost99
		}
	})
	f.setupAllSegRs(t, 100_000)
	return f, pol
}

// TestHostCapRenewalChargesItsIncrease: the cap is on what the host's live EERs
// hold, so a renewal counts for the bandwidth it adds, solo or in a wave — not
// for its whole bandwidth once more (a 1 Mbps EER under a 10 Mbps cap used to
// be refused on its tenth renewal).
func TestHostCapRenewalChargesItsIncrease(t *testing.T) {
	f, pol := hostCapFabric(t)
	src := f.services[ia(1, 11)]
	g, err := src.RequestEER(7, 2, ia(2, 11), 1_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f.clock.Add(1)
		if i%2 == 0 {
			g, err = src.RenewEER(g, 1_000)
		} else {
			gs, errs := src.RenewEERBatch([]*EERGrant{g}, []uint64{1_000})
			g, err = gs[0], errs[0]
		}
		if err != nil {
			t.Fatalf("renewal %d: %v", i, err)
		}
	}
	if pol.used[7] != 1_000 {
		t.Fatalf("host holds %d kbps after 20 keep-alives of a 1 Mbps EER", pol.used[7])
	}
	// Growing past the cap is refused, solo and in a wave, and costs nothing.
	f.clock.Add(1)
	if _, err := src.RenewEER(g, 12_000); !errors.Is(err, RefusedPolicy) {
		t.Fatalf("renewal past the cap: %v", err)
	}
	if _, errs := src.RenewEERBatch([]*EERGrant{g}, []uint64{12_000}); !errors.Is(errs[0], RefusedPolicy) {
		t.Fatalf("wave renewal past the cap: %v", errs[0])
	}
	if pol.used[7] != 1_000 {
		t.Fatalf("host holds %d kbps after refused renewals", pol.used[7])
	}
	// Growing within it charges the increase; shrinking returns the difference.
	f.clock.Add(1)
	if g, err = src.RenewEER(g, 9_000); err != nil || pol.used[7] != 9_000 {
		t.Fatalf("renewal to 9 Mbps: err %v, host holds %d kbps", err, pol.used[7])
	}
	if _, err := src.RequestEER(7, 3, ia(2, 11), 2_000); err == nil {
		t.Fatal("second EER past the cap granted")
	}
	f.clock.Add(1)
	if _, err = src.RenewEER(g, 3_000); err != nil || pol.used[7] != 3_000 {
		t.Fatalf("renewal to 3 Mbps: err %v, host holds %d kbps", err, pol.used[7])
	}
}

// TestHostCapRefusedRequestReturnsItsCharge: a request refused downstream holds
// nothing of the cap afterwards — a setup nothing, a renewal what the EER held.
func TestHostCapRefusedRequestReturnsItsCharge(t *testing.T) {
	f, pol := hostCapFabric(t)
	src := f.services[ia(1, 11)]
	for i := 0; i < 3; i++ {
		if _, err := src.RequestEER(7, 99, ia(2, 11), 8_000); !errors.Is(err, RefusedVeto) {
			t.Fatalf("vetoed setup %d: %v", i, err)
		}
		if pol.used[7] != 0 || len(pol.eers) != 0 {
			t.Fatalf("vetoed setup %d left %d kbps in %d EERs on the host", i, pol.used[7], len(pol.eers))
		}
	}
	g, err := src.RequestEER(7, 2, ia(2, 11), 4_000)
	if err != nil {
		t.Fatal(err)
	}
	// A renewal within the cap charges its increase; one the renewal throttle
	// then refuses leaves the EER what it held.
	f.clock.Add(1)
	if g, err = src.RenewEER(g, 8_000); err != nil || pol.used[7] != 8_000 {
		t.Fatalf("renewal to 8 Mbps: err %v, host holds %d kbps", err, pol.used[7])
	}
	if _, err := src.RenewEER(g, 10_000); err == nil || pol.used[7] != 8_000 {
		t.Fatalf("throttled renewal: err %v, host holds %d kbps", err, pol.used[7])
	}
}

// TestHostCapExpiryFreesTheHost: an EER that lapses unrenewed returns its share,
// so the host can reserve its full cap again.
func TestHostCapExpiryFreesTheHost(t *testing.T) {
	f, pol := hostCapFabric(t)
	src := f.services[ia(1, 11)]
	if _, err := src.RequestEER(7, 2, ia(2, 11), 10_000); err != nil {
		t.Fatal(err)
	}
	if _, err := src.RequestEER(7, 2, ia(2, 11), 1_000); err == nil {
		t.Fatal("host exceeded its cap")
	}
	f.clock.Add(reservation.EERLifetimeSeconds + 1)
	for _, s := range f.services {
		s.Tick()
	}
	if pol.used[7] != 0 || len(pol.eers) != 0 {
		t.Fatalf("lapsed EER still holds %d kbps of its host's cap", pol.used[7])
	}
	if _, err := src.RequestEER(7, 2, ia(2, 11), 10_000); err != nil {
		t.Fatalf("full cap after expiry: %v", err)
	}
}

func TestDestinationVeto(t *testing.T) {
	f := twoISDFabric(t, func(iaKey topology.IA, cfg *Config) {
		if iaKey == ia(2, 11) {
			cfg.DstApprove = refuseHost99
		}
	})
	f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	if _, err := src.RequestEER(1, 99, ia(2, 11), 1_000); err == nil {
		t.Fatal("vetoed destination accepted")
	}
	if _, err := src.RequestEER(1, 2, ia(2, 11), 1_000); err != nil {
		t.Fatal(err)
	}
}

func TestTickReleasesExpired(t *testing.T) {
	f := twoISDFabric(t, nil)
	up, _, _ := f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	if _, err := src.RequestEER(1, 2, ia(2, 11), 8_000); err != nil {
		t.Fatal(err)
	}
	transit := f.services[ia(1, 2)]
	if d, _ := transit.CPlane().SegDemandMax(up.ID); d != 8_000 {
		t.Fatalf("allocated = %d", d)
	}
	// EERs live 16 s; advance past expiry and tick.
	f.clock.Store(t0 + reservation.EERLifetimeSeconds + 1)
	transit.Tick()
	if d, _ := transit.CPlane().SegDemandMax(up.ID); d != 0 {
		t.Errorf("allocated after expiry = %d", d)
	}
	if ct := transit.CPlane().Counts(); ct.SegRs != 1 || ct.EERs != 0 {
		t.Errorf("counts after EER expiry: %+v", ct)
	}
	// Advance past SegR expiry: SegRs vanish and admission state empties.
	f.clock.Store(t0 + reservation.SegRLifetimeSeconds + 1)
	transit.Tick()
	if segs := transit.CPlane().Counts().SegRs; segs != 0 {
		t.Errorf("store keeps %d SegRs after their expiry", segs)
	}
	if ct := transit.CPlane().Counts(); ct.SegRs != 0 || ct.EERs != 0 {
		t.Errorf("counts after SegR expiry: %+v", ct)
	}
	for _, h := range up.Seg.Hops {
		if h.IA == transit.IA() && transit.CPlane().AllocatedKbps(h.Eg) != 0 {
			t.Errorf("admission still holds %d kbps at egress %d", transit.CPlane().AllocatedKbps(h.Eg), h.Eg)
		}
	}
}

// TestDirectoryWhitelist changes the up SegR's offer the only way an offer
// changes — a replacement registered under its ID — and its removal both
// ways, each time right after a setup has memoised the chain: the very next
// request sees the change.
func TestDirectoryWhitelist(t *testing.T) {
	f := twoISDFabric(t, nil)
	up, _, _ := f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	chains, err := src.SegRsTo(ia(2, 11))
	if err != nil {
		t.Fatal(err)
	}
	off := chains[0][0]
	if off.ID != up.ID {
		t.Fatalf("the first chain starts with %s, want the up SegR %s", off.ID, up.ID)
	}
	host := uint32(0)
	usable := func(when string, want bool) {
		t.Helper()
		host++
		_, err := src.RequestEER(host, host, ia(2, 11), 100)
		if _, qerr := src.SegRsTo(ia(2, 11)); (err == nil) != want || (qerr == nil) != want {
			t.Fatalf("%s: setup %v, query %v; want usable = %v", when, err, qerr, want)
		}
	}
	reregister := func(whitelist map[topology.IA]bool) {
		cp := *off
		cp.Whitelist = whitelist
		f.dir.Register(&cp)
	}
	usable("before any change", true)
	reregister(map[topology.IA]bool{ia(9, 9): true})
	usable("restricted to another AS", false)
	reregister(map[topology.IA]bool{ia(9, 9): true, ia(1, 11): true})
	usable("widened to the requester", true)
	reregister(nil)
	usable("public again", true)

	f.dir.Unregister(up.ID)
	usable("unregistered", false)
	f.dir.Unregister(up.ID)
	usable("unregistered twice", false)
	reregister(nil)
	usable("registered again", true)

	// An Expire that deletes nothing keeps the memo; one that deletes empties it.
	f.dir.Expire(t0)
	if len(f.dir.memo) == 0 {
		t.Error("an Expire that deleted nothing emptied the memo")
	}
	usable("after an Expire that deleted nothing", true)
	f.dir.Expire(t0 + reservation.SegRLifetimeSeconds)
	if f.dir.Len() != 0 || len(f.dir.memo) != 0 {
		t.Fatalf("after expiry: %d offers, %d memoised queries", f.dir.Len(), len(f.dir.memo))
	}
	usable("after every offer expired", false)
}

func TestSegRsToOrdering(t *testing.T) {
	f := twoISDFabric(t, nil)
	f.setupAllSegRs(t, 100_000)
	// Also set up the alternative up-SegR via 1-3: two chains now exist.
	alt := f.reg.UpSegments(ia(1, 11))[1]
	if _, err := f.services[ia(1, 11)].SetupSegment(alt, 0, 100_000); err != nil {
		t.Fatal(err)
	}
	chains, err := f.services[ia(1, 11)].SegRsTo(ia(2, 11))
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) < 2 {
		t.Fatalf("%d chains, want ≥ 2 (path choice)", len(chains))
	}
	for i := 1; i < len(chains); i++ {
		if chainLen(chains[i-1]) > chainLen(chains[i]) {
			t.Error("chains not sorted by length")
		}
	}
}

func TestMessageRoundTrips(t *testing.T) {
	segReq := &SegSetupReq{
		ID:      reservation.ID{SrcAS: ia(1, 11), Num: 7},
		SegType: segment.Up,
		Path: []PathHop{
			{IA: ia(1, 11), Eg: 1},
			{IA: ia(1, 1), In: 2},
		},
		MinKbps:   100,
		MaxKbps:   1000,
		ExpT:      t0,
		Ver:       3,
		Renewal:   true,
		Macs:      make([][cryptoutil.MACSize]byte, 2),
		AccumKbps: 555,
	}
	segReq.Macs[0][0] = 0xAA
	data := segReq.Marshal()
	got, err := UnmarshalSegSetupReq(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != segReq.ID || got.Ver != 3 || !got.Renewal || got.AccumKbps != 555 ||
		len(got.Path) != 2 || got.Path[1].In != 2 || got.Macs[0][0] != 0xAA {
		t.Errorf("SegSetupReq round trip: %+v", got)
	}

	eeReq := &EESetupReq{
		ID:      reservation.ID{SrcAS: ia(1, 11), Num: 9},
		SegIDs:  []reservation.ID{{SrcAS: ia(1, 11), Num: 1}, {SrcAS: ia(1, 1), Num: 2}},
		Splits:  []uint8{2},
		Path:    segReq.Path,
		BwKbps:  8000,
		ExpT:    t0,
		Ver:     1,
		SrcHost: 5,
		DstHost: 6,
		Macs:    make([][cryptoutil.MACSize]byte, 2),
	}
	got2, err := UnmarshalEESetupReq(eeReq.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got2.ID != eeReq.ID || len(got2.SegIDs) != 2 || got2.Splits[0] != 2 ||
		got2.SrcHost != 5 || got2.DstHost != 6 {
		t.Errorf("EESetupReq round trip: %+v", got2)
	}

	resp := &SegSetupResp{FinalKbps: 123, Tokens: [][packet.HVFLen]byte{{1, 2, 3, 4}}}
	got3, err := UnmarshalSegSetupResp(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got3.Refusal != Granted || got3.FinalKbps != 123 || got3.Tokens[0] != [4]byte{1, 2, 3, 4} {
		t.Errorf("SegSetupResp round trip: %+v", got3)
	}

	eresp := &EESetupResp{Refusal: RefusedVeto, FailedAt: 2, EncAuths: [][]byte{{9, 9}}}
	got4, err := UnmarshalEESetupResp(eresp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got4.Refusal != RefusedVeto || got4.FailedAt != 2 || len(got4.EncAuths[0]) != 2 {
		t.Errorf("EESetupResp round trip: %+v", got4)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalSegSetupReq(nil); err == nil {
		t.Error("nil SegSetupReq accepted")
	}
	if _, err := UnmarshalSegSetupReq([]byte{tagEESetup}); err == nil {
		t.Error("wrong tag accepted")
	}
	if _, err := UnmarshalEESetupReq([]byte{tagEESetup, 1, 2}); err == nil {
		t.Error("truncated EESetupReq accepted")
	}
	if _, err := UnmarshalSegActivateReq([]byte{tagSegActivate}); err == nil {
		t.Error("truncated SegActivateReq accepted")
	}
}

// BenchmarkSegRHandleAtLastHop measures the paper's §6 quantity at unit
// level: the time between a marshaled SegReq arriving at a CServ and the
// response leaving it (the measured AS is the last hop, so no forwarding).
func BenchmarkSegRHandleAtLastHop(b *testing.B) {
	// The virtual clock never advances here, so disable per-second rate
	// limiting to avoid measuring the limiter's refusals.
	f := twoISDFabric(b, func(_ topology.IA, cfg *Config) { cfg.RateLimit = 1 << 30 })
	seg := f.reg.UpSegments(ia(1, 11))[0]
	src := f.services[ia(1, 11)]
	last := f.services[seg.DstIA()]
	// Pre-populate existing reservations at the measured AS.
	for i := 0; i < 1000; i++ {
		if _, err := src.SetupSegment(seg, 0, 10); err != nil {
			b.Fatal(err)
		}
	}
	const batch = 2048
	reqs := make([][]byte, batch)
	ids := make([]reservation.ID, batch)
	mkBatch := func(gen int) {
		for i := range reqs {
			req := &SegSetupReq{
				ID:      reservation.ID{SrcAS: ia(1, 11), Num: uint32(1<<30 + gen*batch + i)},
				SegType: seg.Type,
				Path:    HopsFromSegment(seg),
				MaxKbps: 10,
				ExpT:    t0 + 300,
				Ver:     1,
			}
			req.Macs = signFor(b, src, req.Path, req.Body())
			req.AccumKbps = 10
			reqs[i] = req.Marshal()
			ids[i] = req.ID
		}
	}
	mkBatch(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%batch == 0 {
			b.StopTimer()
			for _, id := range ids {
				last.CPlane().AbortSegR(id)
			}
			mkBatch(i / batch)
			b.StartTimer()
		}
		data, err := last.HandleMsg(reqs[i%batch])
		if err != nil {
			b.Fatal(err)
		}
		resp, err := UnmarshalSegSetupResp(data)
		if err != nil || resp.Refusal != Granted {
			b.Fatalf("refused: %v %v", err, resp)
		}
	}
}
