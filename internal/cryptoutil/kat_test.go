package cryptoutil

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"colibri/internal/packet"
	"colibri/internal/topology"
)

// readKAT reads a known-answer file: a name and a hex value a line, blank
// lines and lines from '#' on skipped.
func readKAT(t *testing.T, path string) map[string][]byte {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kat := map[string][]byte{}
	for n, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		v, err := hex.DecodeString(strings.Join(f[1:], ""))
		if err != nil || len(f) < 2 {
			t.Fatalf("%s:%d: %q is no name and hex value (%v)", path, n+1, line, err)
		}
		kat[f[0]] = v
	}
	return kat
}

// katUint reads a big-endian field of up to 8 bytes.
func katUint(t *testing.T, kat map[string][]byte, name string) uint64 {
	t.Helper()
	v, ok := kat[name]
	if !ok || len(v) > 8 {
		t.Fatalf("field %s: %x", name, v)
	}
	var b [8]byte
	copy(b[8-len(v):], v)
	return binary.BigEndian.Uint64(b[:])
}

// TestKnownAnswers holds the SegR token (Eq. 3), the hop authenticator σ
// (Eq. 4) and the two-step HVF (Eq. 6) to fixed-key vectors that the standard
// library's AES computed (testdata/kat.hex): the packed MAC inputs, and each
// kernel the planes use — the CBC-MAC chain, the router's fused σ-then-HVF
// step, the gateway's per-σ step and the one-block MAC — in whichever build,
// AES-NI or purego, the test runs; and σ sealed for the source (Eq. 5) to
// vectors crypto/cipher's GCM computed, on the one-block kernel where the
// test runs it.
func TestKnownAnswers(t *testing.T) {
	kat := readKAT(t, "testdata/kat.hex")
	u := func(name string) uint64 { return katUint(t, kat, name) }
	want := func(name string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, kat[name]) {
			t.Errorf("%s = %x, want %x", name, got, kat[name])
		}
	}
	var key Key
	copy(key[:], kat["key"])
	res := packet.ResInfo{SrcAS: topology.IA(u("srcas")), ResID: uint32(u("resid")), BwKbps: uint32(u("bw")),
		ExpT: uint32(u("expt")), Ver: uint16(u("ver"))}
	hf := packet.HopField{In: topology.IfID(u("in")), Eg: topology.IfID(u("eg"))}
	eer := packet.EERInfo{SrcHost: uint32(u("srchost")), DstHost: uint32(u("dsthost"))}
	m := MustCBCMAC(key)
	var mac [MACSize]byte

	var segIn [packet.SegAuthLen]byte
	packet.SegAuthInput(&segIn, &res, hf)
	want("segauth", segIn[:])
	m.SumInto(&mac, segIn[:])
	want("token", mac[:packet.HVFLen])

	var eerIn [packet.EERAuthLen]byte
	packet.EERAuthInput(&eerIn, &res, &eer, hf)
	want("eerauth", eerIn[:])
	var sigma Key
	m.SumInto((*[MACSize]byte)(&sigma), eerIn[:])
	want("sigma", sigma[:])

	var hvfIn [packet.HVFInputLen]byte
	packet.HVFInput(&hvfIn, u("ts"), uint32(u("pktsize")))
	want("hvfin", hvfIn[:])
	m.HopMAC(&eerIn, &hvfIn, &mac)
	want("hvfmac", mac[:])
	want("hvf", mac[:packet.HVFLen])
	var ks AESSchedule
	mac = [MACSize]byte{}
	SigmaMAC(&ks, &sigma, &mac, &hvfIn)
	want("hvfmac", mac[:])
	mac = [MACSize]byte{}
	MACOneBlock(NewBlock(sigma), &mac, &hvfIn)
	want("hvfmac", mac[:])

	sl := NewSealer(key)
	for _, n := range []string{"0", "13", "16"} {
		ad := kat["gcmad"+n]
		want("gcmseal"+n, sl.SealTo(nil, kat["gcmnonce"], sigma[:], ad))
		if got, err := sl.OpenTo(nil, kat["gcmseal"+n], ad); err != nil || !bytes.Equal(got, sigma[:]) {
			t.Errorf("gcmseal%s opens to %x, %v; want %x", n, got, err, sigma)
		}
	}
}
