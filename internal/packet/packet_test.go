package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"colibri/internal/topology"
)

func samplePacket() *Packet {
	return &Packet{
		Type:    TData,
		CurrHop: 1,
		Res: ResInfo{
			SrcAS:  topology.MustIA(1, 11),
			ResID:  42,
			BwKbps: 400_000,
			ExpT:   1_700_000_016,
			Ver:    3,
		},
		EER:     EERInfo{SrcHost: 0x0a000001, DstHost: 0x0a000002},
		Ts:      123456789,
		Path:    []HopField{{In: 0, Eg: 1}, {In: 2, Eg: 3}, {In: 4, Eg: 0}},
		HVFs:    []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		Payload: []byte("hello colibri"),
	}
}

func TestSerializeDecodeRoundTrip(t *testing.T) {
	p := samplePacket()
	buf, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != p.Length() {
		t.Errorf("Serialize length %d != Length() %d", len(buf), p.Length())
	}
	var q Packet
	n, err := q.DecodeFromBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if q.Type != p.Type || q.CurrHop != p.CurrHop || q.Res != p.Res || q.EER != p.EER || q.Ts != p.Ts {
		t.Errorf("header mismatch: %+v vs %+v", q, p)
	}
	if !reflect.DeepEqual(q.Path, p.Path) {
		t.Errorf("path mismatch: %v vs %v", q.Path, p.Path)
	}
	if !bytes.Equal(q.HVFs, p.HVFs) || !bytes.Equal(q.Payload, p.Payload) {
		t.Error("HVFs or payload mismatch")
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hops := 1 + rng.Intn(MaxHops)
		p := &Packet{
			Type:    Type(1 + rng.Intn(7)),
			CurrHop: uint8(rng.Intn(hops)),
			Res: ResInfo{
				SrcAS:  topology.IA(rng.Uint64()),
				ResID:  rng.Uint32(),
				BwKbps: rng.Uint32(),
				ExpT:   rng.Uint32(),
				Ver:    uint16(rng.Uint32()),
			},
			EER:     EERInfo{SrcHost: rng.Uint32(), DstHost: rng.Uint32()},
			Ts:      rng.Uint64(),
			Path:    make([]HopField, hops),
			HVFs:    make([]byte, hops*HVFLen),
			Payload: make([]byte, rng.Intn(2000)),
		}
		for i := range p.Path {
			p.Path[i] = HopField{In: topology.IfID(rng.Uint32()), Eg: topology.IfID(rng.Uint32())}
		}
		rng.Read(p.HVFs)
		rng.Read(p.Payload)
		buf, err := p.Serialize()
		if err != nil {
			return false
		}
		var q Packet
		if _, err := q.DecodeFromBytes(buf); err != nil {
			return false
		}
		return q.Res == p.Res && q.EER == p.EER && q.Ts == p.Ts &&
			reflect.DeepEqual(q.Path, p.Path) &&
			bytes.Equal(q.HVFs, p.HVFs) && bytes.Equal(q.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeReusesBackingArrays(t *testing.T) {
	p := samplePacket()
	buf, _ := p.Serialize()
	var q Packet
	if _, err := q.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	pathPtr := &q.Path[0]
	if _, err := q.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if &q.Path[0] != pathPtr {
		t.Error("decode reallocated the path slice")
	}
	// HVFs alias the buffer.
	q.HVF(0)[0] = 0xEE
	if buf[fixedLen+3*hopFieldLen] != 0xEE {
		t.Error("HVFs do not alias the input buffer")
	}
}

func TestSerializeErrors(t *testing.T) {
	p := samplePacket()
	small := make([]byte, 4)
	if _, err := p.SerializeTo(small); err == nil {
		t.Error("short buffer accepted")
	}
	p2 := *samplePacket()
	p2.Path = nil
	p2.HVFs = nil
	if _, err := p2.Serialize(); err == nil {
		t.Error("empty path accepted")
	}
	p3 := *samplePacket()
	p3.CurrHop = 3
	if _, err := p3.Serialize(); err == nil {
		t.Error("out-of-range CurrHop accepted")
	}
	p4 := *samplePacket()
	p4.HVFs = p4.HVFs[:8]
	if _, err := p4.Serialize(); err == nil {
		t.Error("wrong HVFs length accepted")
	}
	p5 := *samplePacket()
	p5.Path = make([]HopField, MaxHops+1)
	p5.HVFs = make([]byte, (MaxHops+1)*HVFLen)
	if _, err := p5.Serialize(); err == nil {
		t.Error("too many hops accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	var q Packet
	if _, err := q.DecodeFromBytes(nil); err == nil {
		t.Error("nil buffer accepted")
	}
	p := samplePacket()
	buf, _ := p.Serialize()

	bad := append([]byte(nil), buf...)
	bad[0] = 9
	if _, err := q.DecodeFromBytes(bad); err == nil {
		t.Error("bad version accepted")
	}

	bad = append([]byte(nil), buf...)
	bad[4] = 0
	if _, err := q.DecodeFromBytes(bad); err == nil {
		t.Error("zero hops accepted")
	}

	bad = append([]byte(nil), buf...)
	bad[4] = MaxHops + 1
	if _, err := q.DecodeFromBytes(bad); err == nil {
		t.Error("too many hops accepted")
	}

	bad = append([]byte(nil), buf...)
	bad[3] = 7 // CurrHop ≥ hops
	if _, err := q.DecodeFromBytes(bad); err == nil {
		t.Error("bad CurrHop accepted")
	}

	if _, err := q.DecodeFromBytes(buf[:len(buf)-1]); err == nil {
		t.Error("truncated buffer accepted")
	}
}

func TestSetCurrHopInPlace(t *testing.T) {
	p := samplePacket()
	buf, _ := p.Serialize()
	SetCurrHopInPlace(buf, 2)
	var q Packet
	if _, err := q.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if q.CurrHop != 2 {
		t.Errorf("decoded CurrHop = %d", q.CurrHop)
	}
}

func TestAuthInputsDiffer(t *testing.T) {
	res := &ResInfo{SrcAS: topology.MustIA(1, 1), ResID: 7, BwKbps: 100, ExpT: 99, Ver: 1}
	eer := &EERInfo{SrcHost: 1, DstHost: 2}

	var a, b [SegAuthLen]byte
	SegAuthInput(&a, res, HopField{In: 1, Eg: 2})
	SegAuthInput(&b, res, HopField{In: 1, Eg: 3})
	if a == b {
		t.Error("SegAuthInput ignores egress interface")
	}
	res2 := *res
	res2.Ver = 2
	SegAuthInput(&b, &res2, HopField{In: 1, Eg: 2})
	if a == b {
		t.Error("SegAuthInput ignores version")
	}

	var e1, e2 [EERAuthLen]byte
	EERAuthInput(&e1, res, eer, HopField{In: 1, Eg: 2})
	eer2 := *eer
	eer2.DstHost = 3
	EERAuthInput(&e2, res, &eer2, HopField{In: 1, Eg: 2})
	if e1 == e2 {
		t.Error("EERAuthInput ignores destination host")
	}

	var h1, h2 [HVFInputLen]byte
	HVFInput(&h1, 100, 64)
	HVFInput(&h2, 100, 65)
	if h1 == h2 {
		t.Error("HVFInput ignores packet size")
	}
	HVFInput(&h2, 101, 64)
	if h1 == h2 {
		t.Error("HVFInput ignores timestamp")
	}
}

func TestAuthInputsClearStaleBytes(t *testing.T) {
	res := &ResInfo{SrcAS: topology.MustIA(1, 1)}
	var a [SegAuthLen]byte
	for i := range a {
		a[i] = 0xFF
	}
	SegAuthInput(&a, res, HopField{})
	for i := 26; i < SegAuthLen; i++ {
		if a[i] != 0 {
			t.Fatal("SegAuthInput left stale padding")
		}
	}
	var e [EERAuthLen]byte
	for i := range e {
		e[i] = 0xFF
	}
	EERAuthInput(&e, res, &EERInfo{}, HopField{})
	for i := 34; i < EERAuthLen; i++ {
		if e[i] != 0 {
			t.Fatal("EERAuthInput left stale padding")
		}
	}
	var h [HVFInputLen]byte
	for i := range h {
		h[i] = 0xFF
	}
	HVFInput(&h, 0, 0)
	for i := 12; i < HVFInputLen; i++ {
		if h[i] != 0 {
			t.Fatal("HVFInput left stale padding")
		}
	}
}

func TestTypeStrings(t *testing.T) {
	for typ, want := range map[Type]string{
		TData: "data", TSegSetupReq: "seg-setup", TSegRenewReq: "seg-renew",
		TSegActivate: "seg-activate", TEESetupReq: "ee-setup",
		TEERenewReq: "ee-renew", TResponse: "response",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q want %q", typ, typ.String(), want)
		}
	}
	if TData.IsControl() {
		t.Error("TData should not be control")
	}
	if !TEESetupReq.IsControl() {
		t.Error("TEESetupReq should be control")
	}
}

func BenchmarkDecode(b *testing.B) {
	p := samplePacket()
	buf, _ := p.Serialize()
	var q Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.DecodeFromBytes(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialize(b *testing.B) {
	p := samplePacket()
	buf := make([]byte, p.Length())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.SerializeTo(buf); err != nil {
			b.Fatal(err)
		}
	}
}
