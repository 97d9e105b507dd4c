package gateway

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/topology"
)

// path5 is a five-hop path, the length of the benchmark's chains.
var path5 = []packet.HopField{{Eg: 1}, {In: 2, Eg: 3}, {In: 4, Eg: 5}, {In: 6, Eg: 7}, {In: 8}}

// TestGatewayBytesPerEER pins the gateway's live heap per EER: from 10 000 to
// 13 000 EERs over one five-hop path each, in eleven steps, hold a record,
// their share of the index and 80 bytes of σ, share one path header (the
// template each record kept before took ~288 bytes an EER), and at most
// 160 bytes each at every step, whatever slack the pages and the index have
// there.
func TestGatewayBytesPerEER(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const budget = 160
	auths := make([]cryptoutil.Key, len(path5))
	// build measures the live heap one gateway of n EERs adds; the least of
	// three is the gateway's, the rest other goroutines' garbage.
	build := func(n uint32) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g := New(srcAS)
		for i := range n {
			auths[0][0] = byte(i)
			if err := g.Install(testRes(i, 8000), packet.EERInfo{SrcHost: i, DstHost: i + n}, path5, auths); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(g)
		if g.Len() != int(n) {
			t.Fatalf("the gateway holds %d EERs, want %d", g.Len(), n)
		}
		return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	}
	worst, at := 0.0, uint32(0)
	for n := uint32(10_000); n <= 13_000; n += 300 {
		if per := min(build(n), build(n), build(n)); per > worst {
			worst, at = per, n
		}
	}
	t.Logf("at most %.1f heap bytes per EER (%d EERs)", worst, at)
	if worst > budget {
		t.Fatalf("%d EERs hold %.1f heap bytes each, budget %d", at, worst, budget)
	}
}

// TestFreshInstallAmortised: installing new EERs over a few paths allocates
// only when a store grows, well under one allocation per hundred installs. A
// collection first keeps the process's first GC, which allocates for the
// runtime itself, out of the count.
func TestFreshInstallAmortised(t *testing.T) {
	const n = 10_000
	paths := [][]packet.HopField{path5[:2], path5[:3], path5, slices.Clone(path5)}
	paths[3][4].In++
	auths := make([]cryptoutil.Key, len(path5))
	g := New(srcAS)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range uint32(n) {
		p := paths[i%4]
		if err := g.Install(testRes(i, 8000), packet.EERInfo{}, p, auths[:len(p)]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.4f allocations per fresh Install", per)
	if per >= 0.01 {
		t.Errorf("a fresh Install allocates %.4f times, want < 0.01", per)
	}
	if g.paths.live != 4 {
		t.Errorf("%d path headers for 4 paths", g.paths.live)
	}
}

// TestPathTableDrains installs EERs over many random paths of mixed hop
// counts, many of them shared, renews some onto other paths (some of another
// hop count) and removes some, checking between the stages that every record
// names the header of its own path and that the stores count exactly the live
// records; once the rest expire, no path header and no σ slot stays
// referenced, and the freed ones serve the next installs.
func TestPathTableDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := New(srcAS)
	w := g.NewWorker()
	out := make([]byte, 2048)
	type eerModel struct {
		res   packet.ResInfo
		eer   packet.EERInfo
		path  []packet.HopField
		auths []cryptoutil.Key
	}
	model := make(map[uint32]*eerModel)
	newEER := func(id uint32) *eerModel {
		hops := 1 + rng.Intn(8)
		m := &eerModel{res: testRes(id, 8000), eer: packet.EERInfo{SrcHost: rng.Uint32(), DstHost: rng.Uint32()},
			path: make([]packet.HopField, hops), auths: make([]cryptoutil.Key, hops)}
		m.res.Ver = uint16(rng.Intn(1 << 16))
		for h := range m.path {
			// Few interfaces, so that short paths repeat.
			m.path[h] = packet.HopField{In: topology.IfID(rng.Intn(3)), Eg: topology.IfID(rng.Intn(3))}
			rng.Read(m.auths[h][:])
		}
		return m
	}
	install := func(id uint32, m *eerModel) {
		if err := g.Install(m.res, m.eer, m.path, m.auths); err != nil {
			t.Fatal(err)
		}
		model[id] = m
	}
	check := func(stage string) {
		t.Helper()
		if g.Len() != len(model) {
			t.Fatalf("%s: %d records, model %d", stage, g.Len(), len(model))
		}
		refs := make(map[uint32]uint32)
		slots := 0
		for id, m := range model {
			r := g.recs.Get(g.id(id))
			if r == nil || !g.paths.ents[r.path].holds(m.path) || int(r.hops) != len(m.path) {
				t.Fatalf("%s: EER %d does not name the header of its path", stage, id)
			}
			for h, a := range m.auths {
				if !bytes.Equal(g.sigs[r.hops-1].at(r.sig)[h*cryptoutil.KeySize:][:cryptoutil.KeySize], a[:]) {
					t.Fatalf("%s: EER %d: its σ slot holds another σ_%d", stage, id, h)
				}
			}
			refs[r.path]++
			slots++
			if n, err := w.Build(id, []byte{byte(id)}, out, baseNs); err != nil || !bytes.Equal(out[:n], wantPacket(m.res, m.eer, m.path, m.auths, []byte{byte(id)}, out[:n])) {
				t.Fatalf("%s: EER %d: built %d bytes, %v, not SerializeTo's packet", stage, id, n, err)
			}
		}
		live := 0
		for e := range g.paths.ents {
			if g.paths.ents[e].refs != refs[uint32(e)] {
				t.Fatalf("%s: path entry %d counts %d references, %d records name it", stage, e, g.paths.ents[e].refs, refs[uint32(e)])
			}
			if refs[uint32(e)] > 0 {
				live++
			}
		}
		indexed := 0
		for _, s := range g.paths.index {
			if s != 0 {
				indexed++
			}
		}
		if g.paths.live != live || indexed != live {
			t.Fatalf("%s: %d live path entries, %d indexed, %d named", stage, g.paths.live, indexed, live)
		}
		used := 0
		for h := range g.sigs {
			used += g.sigs[h].used
		}
		if used != slots {
			t.Fatalf("%s: %d σ slots in use for %d records", stage, used, slots)
		}
	}
	const n = 2000
	first := make([]*eerModel, n)
	for id := range uint32(n) {
		first[id] = newEER(id)
		install(id, first[id])
	}
	check("installed")
	for id := uint32(0); id < n; id += 3 {
		install(id, newEER(id))
	}
	check("renewed")
	for id := uint32(0); id < n; id += 5 {
		g.Remove(id)
		delete(model, id)
	}
	check("removed")
	ents := len(g.paths.ents)
	if dropped := g.Expire(^uint32(0)); dropped != len(model) {
		t.Fatalf("Expire dropped %d of %d", dropped, len(model))
	}
	clear(model)
	check("expired")
	// The first installs again: their paths took entries once, so the freed
	// entries hold them all.
	for id := range uint32(n) {
		install(id, first[id])
	}
	check("refilled")
	if len(g.paths.ents) != ents {
		t.Errorf("the refill made %d path entries where %d were free", len(g.paths.ents)-ents, ents)
	}
}

// wantPacket is the packet SerializeTo encodes for the version with the HVFs
// of Eq. (6), at the Ts a built packet got (read from built).
func wantPacket(res packet.ResInfo, eer packet.EERInfo, path []packet.HopField, auths []cryptoutil.Key, payload, built []byte) []byte {
	var dec packet.Packet
	if _, err := dec.DecodeFromBytes(built); err != nil {
		return nil
	}
	want := packet.Packet{Type: packet.TData, Res: res, EER: eer, Path: path, Payload: payload,
		Ts: dec.Ts, HVFs: make([]byte, len(path)*packet.HVFLen)}
	var in [packet.HVFInputLen]byte
	packet.HVFInput(&in, want.Ts, uint32(want.Length()))
	for h, a := range auths {
		var mac [cryptoutil.MACSize]byte
		cryptoutil.MACOneBlock(cryptoutil.NewBlock(a), &mac, &in)
		copy(want.HVFs[h*packet.HVFLen:], mac[:packet.HVFLen])
	}
	wire := make([]byte, want.Length())
	_, _ = want.SerializeTo(wire)
	return wire
}
