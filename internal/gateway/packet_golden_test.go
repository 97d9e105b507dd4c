// packet_golden_test.go — the Colibri packet (§4.3, Eq. 2) as committed bytes:
// one golden per packet.Type under testdata/packet, built from fixed keys, IDs
// and times — the data packet by the gateway itself, from fixed σs and a fixed
// Ts — so that a header field, hop field or HVF that moves by one byte fails a
// named test, in the default build and in the purego one. Regenerate with
// go test -run TestPacketGoldens -update ./internal/gateway.
package gateway

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/topology"
)

var update = flag.Bool("update", false, "rewrite the packet goldens under testdata/packet")

// fill returns n bytes counting up from b.
func fill(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b + byte(i)
	}
	return out
}

// packetGoldens are the packets of testdata/packet, by file name: one per
// packet.Type, over one path of three hops. The EER's packets — data, and a
// renewal sent over the EER — carry HVFs under the fixed σs 0x10…, 0x20…,
// 0x30… (Eq. 6); the SegR's control packets the SegR tokens of hops whose
// secrets K_i are 0x40…, 0x50…, 0x60… (Eq. 3), but a setup, which travels
// best effort with none. Each carries a fixed payload.
func packetGoldens(t *testing.T) map[string][]byte {
	const tsNs = 1_700_000_000_123_456_789
	src := topology.MustIA(1, 11)
	path := []packet.HopField{{Eg: 1}, {In: 2, Eg: 3}, {In: 4}}
	eerRes := packet.ResInfo{SrcAS: src, ResID: 42, BwKbps: 8_000, ExpT: 1_700_000_016, Ver: 3}
	eer := packet.EERInfo{SrcHost: 0x0a000001, DstHost: 0x0a000063}
	segRes := packet.ResInfo{SrcAS: src, ResID: 1, BwKbps: 100_000, ExpT: 1_700_000_300, Ver: 2}
	payload := fill(0xa0, 24)
	sigmas := make([]cryptoutil.Key, len(path))
	for h := range sigmas {
		sigmas[h] = cryptoutil.Key(fill(byte(0x10*(h+1)), cryptoutil.KeySize))
	}

	g := New(src)
	if err := g.Install(eerRes, eer, path, sigmas); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, packet.DataLen(len(path), len(payload)))
	if n, err := g.NewWorker().Build(eerRes.ResID, payload, out, int64(tsNs)); err != nil || n != len(out) {
		t.Fatalf("building the data packet: %d bytes, %v", n, err)
	}
	goldens := map[string][]byte{"data": out}

	// Each hop's HVFs of a control packet of n bytes: under its σ (Eq. 6),
	// its SegR token (Eq. 3), or none.
	eerHVFs := func(n int) []byte {
		var in [packet.HVFInputLen]byte
		packet.HVFInput(&in, tsNs, uint32(n))
		var hvfs []byte
		for _, s := range sigmas {
			var mac [cryptoutil.MACSize]byte
			cryptoutil.MACOneBlock(cryptoutil.NewBlock(s), &mac, &in)
			hvfs = append(hvfs, mac[:packet.HVFLen]...)
		}
		return hvfs
	}
	segHVFs := func(int) []byte {
		var hvfs []byte
		for h, hf := range path {
			var in [packet.SegAuthLen]byte
			packet.SegAuthInput(&in, &segRes, hf)
			var mac [cryptoutil.MACSize]byte
			cryptoutil.MustCBCMAC(cryptoutil.Key(fill(byte(0x40+0x10*h), cryptoutil.KeySize))).SumInto(&mac, in[:])
			hvfs = append(hvfs, mac[:packet.HVFLen]...)
		}
		return hvfs
	}
	noHVFs := func(int) []byte { return make([]byte, len(path)*packet.HVFLen) }
	for name, c := range map[string]struct {
		typ  packet.Type
		res  packet.ResInfo
		eer  packet.EERInfo
		hvfs func(n int) []byte
	}{
		"seg_setup_req": {packet.TSegSetupReq, segRes, packet.EERInfo{}, noHVFs},
		"seg_renew_req": {packet.TSegRenewReq, segRes, packet.EERInfo{}, segHVFs},
		"seg_activate":  {packet.TSegActivate, segRes, packet.EERInfo{}, segHVFs},
		"ee_setup_req":  {packet.TEESetupReq, segRes, packet.EERInfo{}, segHVFs},
		"ee_renew_req":  {packet.TEERenewReq, eerRes, eer, eerHVFs},
		"response":      {packet.TResponse, segRes, packet.EERInfo{}, segHVFs},
	} {
		p := packet.Packet{Type: c.typ, Res: c.res, EER: c.eer, Ts: tsNs, Path: path, Payload: payload}
		p.HVFs = c.hvfs(p.Length())
		b := make([]byte, p.Length())
		if _, err := p.SerializeTo(b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		goldens[name] = b
	}
	return goldens
}

// TestPacketGoldens: every packet type encodes to its committed bytes, and the
// committed bytes decode to a packet of that type that encodes to them again.
func TestPacketGoldens(t *testing.T) {
	goldens := packetGoldens(t)
	types := map[packet.Type]bool{}
	for name, got := range goldens {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "packet", name+".hex")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(hexLines(got)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("encodes to\n%s\nwant (%s)\n%s", hexLines(got), path, hexLines(want))
			}
			var p packet.Packet
			if n, err := p.DecodeFromBytes(want); err != nil || n != len(want) {
				t.Fatalf("golden does not decode: %d of %d bytes, %v", n, len(want), err)
			}
			types[p.Type] = true
			again := make([]byte, p.Length())
			if _, err := p.SerializeTo(again); err != nil || !bytes.Equal(again, want) {
				t.Errorf("golden decodes to a packet that encodes to\n%s(%v)", hexLines(again), err)
			}
		})
	}
	for typ := packet.TData; typ <= packet.TResponse; typ++ {
		if !types[typ] {
			t.Errorf("no golden decodes to a %v packet", typ)
		}
	}
}

// hexLines renders b as hex, 16 bytes a line.
func hexLines(b []byte) string {
	var s strings.Builder
	for len(b) > 0 {
		n := min(16, len(b))
		s.WriteString(hex.EncodeToString(b[:n]) + "\n")
		b = b[n:]
	}
	return s.String()
}
