package main

import (
	"time"

	"colibri/internal/admission"
	"colibri/internal/cryptoutil"
	"colibri/internal/cserv"
	"colibri/internal/drkey"
	"colibri/internal/monitor"
	"colibri/internal/ofd"
	"colibri/internal/packet"
	"colibri/internal/replay"
	"colibri/internal/reservation"
	"colibri/internal/restree"
	"colibri/internal/topology"
)

// Leaf probes call one module's public function standalone, on the packets,
// messages and identifiers the workload generated, after the timed section.
// They are the floor under a stage's span: their sum says which term of
// router.process_us or cserv.*_self_us to attack. A probe that cannot run
// (no captured message) reports 0.

const (
	probeCalls   = 4000
	probeBatches = 5
)

// probe returns the median over batches of f's mean time per call, in ns.
func probe(f func(i int)) float64 {
	var means []float64
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < probeCalls; i++ {
			f(b*probeCalls + i)
		}
		means = append(means, float64(time.Since(t0))/probeCalls)
	}
	return median(means)
}

// keyServer answers drkey fetches for the drkey.get_ns probe.
type keyServer struct{ srv *drkey.Server }

func (k keyServer) QueryKeyServer(_ topology.IA, req []byte) ([]byte, error) {
	return k.srv.Handle(req)
}

func (w *world) leafProbes(out map[string]metric) {
	ns := func(name string, v float64) { out[name] = metric{v, "ns"} }
	now := w.net.Clock.NowNs()
	nowSec := w.net.Clock.NowSec()

	// Data plane, on a packet of this workload's size and path length.
	var pkt packet.Packet
	buf := append([]byte(nil), w.samplePkt...)
	ns("packet.decode_ns", probe(func(int) { _, _ = pkt.DecodeFromBytes(buf) }))
	ns("packet.serialize_ns", probe(func(int) { _, _ = pkt.SerializeTo(buf) }))

	var (
		key    = drkey.RandomMaster()
		cbc    = cryptoutil.MustCBCMAC(key)
		eerIn  [packet.EERAuthLen]byte
		hvfIn  [packet.HVFInputLen]byte
		sigma  cryptoutil.Key
		ks     cryptoutil.AESSchedule
		macOut [cryptoutil.MACSize]byte
	)
	packet.EERAuthInput(&eerIn, &pkt.Res, &pkt.EER, pkt.Path[0])
	packet.HVFInput(&hvfIn, pkt.Ts, uint32(len(buf)))
	ns("cryptoutil.sigma_ns", probe(func(int) {
		cbc.SumInto((*[cryptoutil.MACSize]byte)(&sigma), eerIn[:])
	}))
	ns("cryptoutil.hvf_ns", probe(func(int) {
		cryptoutil.ExpandAES128(&ks, &sigma)
		cryptoutil.EncryptAES128(&ks, &macOut, &hvfIn)
	}))

	// The protection stack, cycling the sessions in the packet station's
	// order so that the working set is the workload's.
	ids := make([]reservation.ID, len(w.sessions))
	for i, s := range w.sessions {
		ids[i] = reservation.ID{SrcAS: srcIA, Num: s.Grant().Res.ResID}
	}
	id := func(i int) reservation.ID { return ids[w.perm[i%len(w.perm)]] }
	rp := replay.New(replay.Config{})
	ns("replay.check_ns", probe(func(i int) {
		rp.FreshAndUnique(replay.PacketID(uint64(srcIA), id(i).Num, uint64(now)+uint64(i)), now)
	}))
	det := ofd.New(ofd.Config{})
	norm := ofd.NormalizedSize(uint32(len(buf)), w.sp.sessKbps)
	ns("ofd.record_ns", probe(func(i int) { det.Record(id(i), norm/1e3, now+int64(i)*1000) }))
	mon := monitor.NewFlowMonitor()
	for _, r := range ids {
		mon.Ensure(r, w.sp.sessKbps, now)
	}
	var (
		one     [1]reservation.ID
		rates   = [1]uint64{w.sp.sessKbps}
		sizes   = [1]uint32{uint32(len(buf))}
		allowed [1]bool
	)
	ns("monitor.allow_ns", probe(func(i int) {
		one[0] = id(i)
		mon.AllowBatch(one[:], rates[:], sizes[:], now+int64(i)*1000, allowed[:])
	}))

	// Control plane, on a setup request the recorder captured off the wire.
	if req, err := cserv.UnmarshalEESetupReq(w.sampleReq); err == nil {
		ns("cserv.unmarshal_ns", probe(func(int) { _, _ = cserv.UnmarshalEESetupReq(w.sampleReq) }))
		ns("cserv.marshal_ns", probe(func(int) { _ = req.Marshal() }))
		cmac := cryptoutil.MustCMAC(key)
		body := req.Body()
		ns("cryptoutil.cmac_ns", probe(func(int) { cmac.SumInto(&macOut, body) }))
	} else {
		ns("cserv.unmarshal_ns", 0)
		ns("cserv.marshal_ns", 0)
		ns("cryptoutil.cmac_ns", 0)
	}
	ad := make([]byte, 13)
	sealed, _ := cryptoutil.Seal(key, sigma[:], ad)
	ns("cryptoutil.seal_ns", probe(func(int) { _, _ = cryptoutil.Seal(key, sigma[:], ad) }))
	ns("cryptoutil.open_ns", probe(func(int) { _, _ = cryptoutil.Open(key, sealed, ad) }))

	ident := drkey.NewIdentity(dstIA)
	store := drkey.NewStore(srcIA, keyServer{drkey.NewServer(drkey.NewEngine(dstIA, key, 0), ident)}, drkey.NewTrustStore(ident))
	ns("drkey.get_ns", probe(func(int) { _, _ = store.Get(dstIA, nowSec) }))

	// The bare admission engine and ledger at this workload's population
	// and the network's shard count: engine ns against hop µs is the gap
	// between what the control plane could do and what the live path does.
	pop := len(w.sessions) + w.sp.fleet + w.sp.churnPerRound*(w.sp.renewAge+reservation.EERLifetimeSeconds/w.sp.roundSecs)
	w.enginePopulationProbes(pop, nowSec, out)
}

func (w *world) enginePopulationProbes(pop int, now uint32, out map[string]metric) {
	ns := func(name string, v float64) { out[name] = metric{v, "ns"} }
	topo := topology.New()
	hub := topology.MustIA(1, 1)
	topo.AddAS(hub, true)
	for i := 1; i <= 2; i++ {
		nbr := topology.MustIA(1, topology.ASID(100+i))
		topo.AddAS(nbr, true)
		topo.MustConnect(hub, topology.IfID(i), nbr, 1, topology.LinkCore, topology.LinkSpec{CapacityKbps: 1 << 40})
	}
	cp, err := cserv.NewCPlane(cserv.CPlaneConfig{
		AS:     topo.AS(hub),
		Split:  admission.DefaultSplit,
		Shards: cplaneShards,
		Clock:  func() uint32 { return now },
	})
	seg := reservation.ID{SrcAS: srcIA, Num: 1}
	if err == nil {
		_, err = cp.AddSegR(admission.Request{ID: seg, Src: srcIA, In: 1, Eg: 2, MaxKbps: 1 << 32})
	}
	if err != nil {
		ns("cserv.cplane_setup_ns", 0)
		ns("cserv.cplane_renew_ns", 0)
	} else {
		eer := func(i int) reservation.ID { return reservation.ID{SrcAS: srcIA, Num: uint32(1<<30 | i)} }
		for i := 0; i < pop; i++ {
			_ = cp.SetupEER(eer(i), seg, 1, now+reservation.EERLifetimeSeconds)
		}
		ns("cserv.cplane_setup_ns", probe(func(i int) {
			_ = cp.SetupEER(eer(pop+i), seg, 1, now+reservation.EERLifetimeSeconds)
		}))
		ns("cserv.cplane_renew_ns", probe(func(i int) {
			_, _ = cp.RenewEER(eer(i%pop), seg, 1, now+reservation.EERLifetimeSeconds)
		}))
	}
	led := restree.NewLedger[reservation.ID](128, 4)
	for i := 0; i < pop; i++ {
		_ = led.Reserve(reservation.ID{SrcAS: srcIA, Num: uint32(i)}, now, now+reservation.EERLifetimeSeconds, 1)
	}
	ns("restree.ledger_renew_ns", probe(func(i int) {
		_ = led.Renew(reservation.ID{SrcAS: srcIA, Num: uint32(i % pop)}, now, now+reservation.EERLifetimeSeconds, 1)
	}))
}
