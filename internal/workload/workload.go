// Package workload builds the reservation populations and traffic mixes of
// the paper's evaluation: pre-generated SegRs and EERs with controlled
// source mixes (Figs. 3–4), gateways preloaded with r reservations over
// h-hop paths (Figs. 5–6, App. E), and the three-phase traffic mixes of
// Table 2.
package workload

import (
	"math/rand"

	"colibri/internal/admission"
	"colibri/internal/cryptoutil"
	"colibri/internal/cserv"
	"colibri/internal/gateway"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/router"
	"colibri/internal/topology"
)

// Epoch is the nominal experiment start time (Unix seconds).
const Epoch = uint32(1_700_000_000)

// EpochNs is Epoch in nanoseconds.
const EpochNs = int64(Epoch) * 1e9

// TransitAS builds a transit AS with n interfaces of the given capacity and
// returns it with a fresh admission state — the unit under test in Fig. 3.
func TransitAS(nIfs int, linkKbps uint64) (*topology.AS, *admission.State) {
	topo := topology.New()
	center := topo.AddAS(topology.MustIA(1, 1), true)
	for i := 1; i <= nIfs; i++ {
		nb := topology.MustIA(1, topology.ASID(i+1))
		topo.AddAS(nb, true)
		topo.MustConnect(topology.MustIA(1, 1), topology.IfID(i), nb, 1,
			topology.LinkCore, topology.LinkSpec{CapacityKbps: linkKbps})
	}
	return center, admission.NewState(center, admission.DefaultSplit)
}

// PopulateSegRs admits n SegRs on the (in, eg) pair of st. A fraction
// `ratio` of them come from srcMain; the rest from distinct other sources —
// the Fig. 3 "ratio" parameter. Demands are chosen small so all fit.
func PopulateSegRs(st *admission.State, n int, ratio float64, srcMain topology.IA, in, eg topology.IfID, rng *rand.Rand) error {
	for i := 0; i < n; i++ {
		src := srcMain
		if float64(i%100)/100 >= ratio {
			src = topology.MustIA(srcMain.ISD(), topology.ASID(1000+i))
		}
		req := admission.Request{
			ID:      reservation.ID{SrcAS: src, Num: uint32(i + 1)},
			Src:     src,
			In:      in,
			Eg:      eg,
			MinKbps: 0,
			MaxKbps: uint64(1 + rng.Intn(100)),
		}
		if _, err := st.AdmitSegR(req); err != nil {
			return err
		}
	}
	return nil
}

// EERPopulation is the Fig. 4 fixture: the control-plane engine of a transit
// AS — what the CServ's handlers admit an EER against — holding s SegRs from
// one source (the paper's parameter s) and n EERs admitted over the first
// SegR, whose ID it returns. The engine's clock stands at Epoch. Links lie far
// above the SegRs' total demand, so each is granted in full.
func EERPopulation(s, n int) (*cserv.CPlane, reservation.ID, error) {
	as, _ := TransitAS(2, 1<<50)
	src := topology.MustIA(1, 8)
	first := reservation.ID{SrcAS: src, Num: 1}
	cp, err := cserv.NewCPlane(cserv.CPlaneConfig{AS: as, Split: admission.DefaultSplit, Clock: func() uint32 { return Epoch }})
	for i := 0; i < s && err == nil; i++ {
		id := reservation.ID{SrcAS: src, Num: uint32(i + 1)}
		_, err = cp.AddSegR(admission.Request{ID: id, Src: src, In: 1, Eg: 2, MaxKbps: 1 << 32})
	}
	for i := 0; i < n && err == nil; i++ {
		id := reservation.ID{SrcAS: topology.MustIA(1, 9), Num: uint32(i + 1)}
		err = cp.SetupEERPath(id, []reservation.ID{first}, 1, Epoch+reservation.EERLifetimeSeconds, 1)
	}
	return cp, first, err
}

// GatewayPopulation is the Figs. 5–6 fixture: a gateway of srcAS preloaded
// with r reservations, each over an h-hop path, with hop authenticators
// consistent with the returned per-AS secrets. It returns the gateway and
// the routers of the on-path ASes (hop order) sharing those secrets.
func GatewayPopulation(r, hops int, rng *rand.Rand) (*gateway.Gateway, []*router.Router) {
	gw, routers, _ := GatewayPopulationWithSecrets(r, hops, rng)
	return gw, routers
}

// GatewayPopulationWithSecrets additionally returns the per-hop AS secrets,
// for building router variants (ablations) over the same population.
func GatewayPopulationWithSecrets(r, hops int, rng *rand.Rand) (*gateway.Gateway, []*router.Router, []cryptoutil.Key) {
	srcAS := topology.MustIA(1, 11)
	gw := gateway.New(srcAS)

	secrets := make([]cryptoutil.Key, hops)
	macs := make([]*cryptoutil.CBCMAC, hops)
	routers := make([]*router.Router, hops)
	for i := range secrets {
		_, _ = rng.Read(secrets[i][:]) // rand.Rand.Read never fails
		macs[i] = cryptoutil.MustCBCMAC(secrets[i])
		routers[i] = router.New(router.Config{
			IA:     topology.MustIA(1, topology.ASID(i+1)),
			Secret: secrets[i],
		})
	}
	path := make([]packet.HopField, hops)
	for i := range path {
		path[i] = packet.HopField{In: topology.IfID(2 * i), Eg: topology.IfID(2*i + 1)}
	}
	path[0].In = 0
	path[hops-1].Eg = 0

	auths := make([]cryptoutil.Key, hops)
	var in [packet.EERAuthLen]byte
	var out [cryptoutil.MACSize]byte
	for id := 1; id <= r; id++ {
		res := packet.ResInfo{
			SrcAS:  srcAS,
			ResID:  uint32(id),
			BwKbps: 1 << 30, // effectively unmonitored: Figs. 5–6 measure crypto+lookup
			ExpT:   Epoch + reservation.EERLifetimeSeconds,
			Ver:    1,
		}
		eer := packet.EERInfo{SrcHost: 1, DstHost: 2}
		for i := range auths {
			packet.EERAuthInput(&in, &res, &eer, path[i])
			macs[i].SumInto(&out, in[:])
			auths[i] = cryptoutil.Key(out)
		}
		if err := gw.Install(res, eer, path, auths); err != nil {
			panic(err) // population construction bug
		}
	}
	return gw, routers, secrets
}

// RandomResIDs returns n reservation IDs drawn uniformly from [1, r] — the
// paper's worst-case arrival pattern ("packets arrive with random
// reservation IDs").
func RandomResIDs(n, r int, rng *rand.Rand) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(1 + rng.Intn(r))
	}
	return ids
}
