package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/hex"
	"math/rand"
	"testing"

	"colibri/internal/packet"
)

// Tests for the data-plane AES-128 kernel. Whatever implementation the build
// selected (AES-NI on amd64, T-tables under -tags purego or elsewhere) is
// held byte-for-byte to crypto/aes, which also makes the two builds
// interoperable: a gateway stamping HVFs with one and a router checking them
// with the other agree because both agree with crypto/aes — the independent
// signer core's GrantView.Stamp already uses. No separate cross-build
// interop test is needed.

func unhex16(t *testing.T, s string) (out [16]byte) {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 16 {
		t.Fatalf("bad vector %q", s)
	}
	copy(out[:], b)
	return out
}

// stdEncrypt is the crypto/aes oracle.
func stdEncrypt(key *Key, block *[16]byte) (out [16]byte) {
	std, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	std.Encrypt(out[:], block[:])
	return out
}

// TestAESKernelFIPS197 checks the FIPS-197 Appendix B and C.1 vectors
// through every entry point, and the Appendix A.1 key expansion through the
// portable schedule (whose word layout is the standard's).
func TestAESKernelFIPS197(t *testing.T) {
	for _, v := range []struct{ name, key, pt, ct string }{
		{"AppendixB", "2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"},
		{"AppendixC1", "000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"},
	} {
		key, pt, want := Key(unhex16(t, v.key)), unhex16(t, v.pt), unhex16(t, v.ct)
		var ks AESSchedule
		var got [16]byte
		ExpandAES128(&ks, &key)
		EncryptAES128(&ks, &got, &pt)
		if got != want {
			t.Errorf("%s: Expand+Encrypt = %x, want %x", v.name, got, want)
		}
		SigmaMAC(&ks, &key, &got, &pt)
		if got != want {
			t.Errorf("%s: SigmaMAC = %x, want %x", v.name, got, want)
		}
		expandSoft(&ks, &key)
		encryptSoft(&ks, &got, &pt)
		if got != want {
			t.Errorf("%s: T-table oracle = %x, want %x", v.name, got, want)
		}
		MustCBCMAC(key).SumInto(&got, pt[:])
		if got != want {
			t.Errorf("%s: one-block CBCMAC = %x, want %x", v.name, got, want)
		}
	}
	key := Key(unhex16(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	var ks AESSchedule
	expandSoft(&ks, &key)
	if ks[4] != 0xa0fafe17 || ks[43] != 0xb6630ca6 {
		t.Errorf("Appendix A.1 expansion: w4 = %08x, w43 = %08x", ks[4], ks[43])
	}
}

// TestAESKernelMatchesStdlib is the differential test: 10⁵ random (key,
// block) pairs through ExpandAES128+EncryptAES128, SigmaMAC and the
// T-table oracle against crypto/aes, with dst aliasing src on every other
// pair.
func TestAESKernelMatchesStdlib(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	rng := rand.New(rand.NewSource(17))
	var ks, scratch AESSchedule
	for i := 0; i < n; i++ {
		var key Key
		var block [16]byte
		rng.Read(key[:])
		rng.Read(block[:])
		want := stdEncrypt(&key, &block)

		ExpandAES128(&ks, &key)
		var got [16]byte
		if i%2 == 0 {
			EncryptAES128(&ks, &got, &block)
		} else {
			got = block
			EncryptAES128(&ks, &got, &got)
		}
		if got != want {
			t.Fatalf("pair %d: Expand+Encrypt = %x, want %x (key %x block %x)", i, got, want, key, block)
		}
		if i%2 == 0 {
			SigmaMAC(&scratch, &key, &got, &block)
		} else {
			got = block
			SigmaMAC(&scratch, &key, &got, &got)
		}
		if got != want {
			t.Fatalf("pair %d: SigmaMAC = %x, want %x (key %x block %x)", i, got, want, key, block)
		}
		expandSoft(&scratch, &key)
		encryptSoft(&scratch, &got, &block)
		if got != want {
			t.Fatalf("pair %d: T-table oracle = %x, want %x", i, got, want)
		}
	}
}

// FuzzSigmaMAC: 16 bytes of σ and 16 bytes of block in, equality with
// crypto/aes out.
func FuzzSigmaMAC(f *testing.F) {
	f.Add(make([]byte, 16), make([]byte, 16))
	f.Add([]byte("\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c"),
		[]byte("\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34"))
	f.Fuzz(func(t *testing.T, k, b []byte) {
		if len(k) != 16 || len(b) != 16 {
			t.Skip()
		}
		key, block := Key(k), [16]byte(b)
		var ks AESSchedule
		var got [16]byte
		SigmaMAC(&ks, &key, &got, &block)
		if want := stdEncrypt(&key, &block); got != want {
			t.Fatalf("SigmaMAC(%x, %x) = %x, want %x", key, block, got, want)
		}
	})
}

// blockCBCMAC is CBCMAC.SumInto as it was before the schedule: the chain
// over a cipher.Block, here a crypto/aes one.
func blockCBCMAC(block cipher.Block, msg []byte) (x [16]byte) {
	for len(msg) > 0 {
		n := min(len(msg), 16)
		for i := 0; i < n; i++ {
			x[i] ^= msg[i]
		}
		block.Encrypt(x[:], x[:])
		msg = msg[n:]
	}
	return x
}

// laneMsgs returns lanes random messages of n bytes, each a repeat of the one
// before it one time in four.
func laneMsgs(rng *rand.Rand, lanes, n int) [][]byte {
	msgs := make([][]byte, lanes)
	for i := range msgs {
		if i > 0 && rng.Intn(4) == 0 {
			msgs[i] = msgs[i-1]
			continue
		}
		msgs[i] = make([]byte, n)
		rng.Read(msgs[i])
	}
	return msgs
}

// sentinel fills the MAC past the lanes a call may write.
var sentinel = [MACSize]byte{0xde, 0xad, 0xbe, 0xef}

// checkCBCLanes holds SumLanes over msgs, four at a time as a wave's σs run,
// to SumInto and to the crypto/aes block form of each, and checks that no lane
// writes past its own MAC.
func checkCBCLanes(t *testing.T, key Key, msgs [][]byte) {
	t.Helper()
	m := MustCBCMAC(key)
	macs := make([][MACSize]byte, len(msgs)+1)
	macs[len(msgs)] = sentinel
	for i := 0; i < len(msgs); i += MaxLanes {
		j := min(i+MaxLanes, len(msgs))
		m.SumLanes(macs[i:j], msgs[i:j])
	}
	if macs[len(msgs)] != sentinel {
		t.Fatalf("%d lanes wrote past their MACs", len(msgs))
	}
	for i, msg := range msgs {
		var one [MACSize]byte
		m.SumInto(&one, msg)
		if want := blockCBCMAC(NewBlock(key), msg); macs[i] != want || one != want {
			t.Fatalf("%d messages of %d bytes, lane %d: SumLanes = %x, SumInto = %x, block form = %x",
				len(msgs), len(msg), i, macs[i], one, want)
		}
	}
}

// TestCBCMACMatchesBlockForm: SumInto and SumLanes on the expanded schedule
// equal the cipher.Block form — one chain over random inputs of the data
// plane's lengths (16: HVF input, 32: SegR token input, 48: Eq. 4 input) and
// ragged ones, in place too; one to four lanes over every length 0–100,
// repeated messages included; and waves of 1 to packet.MaxHops σ inputs run
// four at a time.
func TestCBCMACMatchesBlockForm(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20_000; i++ {
		var key Key
		rng.Read(key[:])
		n := []int{16, 32, 48, 1 + rng.Intn(63)}[i%4]
		msg := make([]byte, n)
		rng.Read(msg)
		var got [MACSize]byte
		MustCBCMAC(key).SumInto(&got, msg)
		want := blockCBCMAC(NewBlock(key), msg)
		if got != want {
			t.Fatalf("len %d: SumInto = %x, block form = %x", n, got, want)
		}
		if n == MACSize {
			inPlace := (*[MACSize]byte)(msg)
			if MustCBCMAC(key).SumInto(inPlace, msg); *inPlace != want {
				t.Fatalf("in place: SumInto = %x, block form = %x", *inPlace, want)
			}
		}
	}
	for n := 0; n <= 100; n++ {
		for lanes := 1; lanes <= MaxLanes; lanes++ {
			var key Key
			rng.Read(key[:])
			checkCBCLanes(t, key, laneMsgs(rng, lanes, n))
		}
	}
	for hops := 1; hops <= packet.MaxHops; hops++ {
		var key Key
		rng.Read(key[:])
		checkCBCLanes(t, key, laneMsgs(rng, hops, packet.EERAuthLen))
	}
}

// TestLanesOfUnevenLengthRefused: chains of one call must have as many whole
// blocks each; the kernel would run every chain as long as the first.
func TestLanesOfUnevenLengthRefused(t *testing.T) {
	defer func() {
		if r := recover(); r != errUnevenChains {
			t.Fatalf("recovered %v, want %v", r, errUnevenChains)
		}
	}()
	var macs [2][MACSize]byte
	MustCBCMAC(Key{1}).SumLanes(macs[:], [][]byte{make([]byte, 32), make([]byte, 48)})
}

// tableHopMAC is HopMAC on the T-table code alone: the CBC-MAC chain of
// SumInto, then the expansion and encryption of SigmaMAC.
func tableHopMAC(key *Key, in *[48]byte, block *[16]byte) (mac [16]byte) {
	var ks AESSchedule
	var sigma Key
	expandSoft(&ks, key)
	for i := 0; i < len(in); i += 16 {
		subtle.XORBytes(sigma[:], sigma[:], in[i:i+16])
		encryptSoft(&ks, (*[16]byte)(&sigma), (*[16]byte)(&sigma))
	}
	expandSoft(&ks, &sigma)
	encryptSoft(&ks, &mac, block)
	return mac
}

// checkHopMAC holds HopMAC to the two-step SumInto + SigmaMAC, the T-table
// code and the crypto/aes block form for one input, once with mac apart
// from block and once aliasing it.
func checkHopMAC(t *testing.T, key Key, in [48]byte, block [16]byte) {
	t.Helper()
	cbc := MustCBCMAC(key)
	var got, twoStep, std [MACSize]byte
	cbc.HopMAC(&in, &block, &got)
	aliased := block
	cbc.HopMAC(&in, &aliased, &aliased)
	cbc.hopMACSoft(&in, &block, &twoStep)
	MACOneBlock(NewBlock(Key(blockCBCMAC(NewBlock(key), in[:]))), &std, &block)
	if table := tableHopMAC(&key, &in, &block); got != twoStep || got != table || got != std || aliased != std {
		t.Fatalf("HopMAC(%x, %x, %x) = %x (aliased %x), SumInto+SigmaMAC = %x, T-table = %x, crypto/aes = %x",
			key, in, block, got, aliased, twoStep, table, std)
	}
}

// TestHopMACMatchesTwoStep: the one-kernel hop equals SumInto + SigmaMAC,
// the T-table code and the crypto/aes block form MACOneBlock(NewBlock(σ))
// over random keys and inputs.
func TestHopMACMatchesTwoStep(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < n; i++ {
		var key Key
		var in [48]byte
		var block [16]byte
		rng.Read(key[:])
		rng.Read(in[:])
		rng.Read(block[:])
		checkHopMAC(t, key, in, block)
	}
}

// FuzzHopMAC: 16 bytes of K_i, the 48-byte Eq. (4) input and a 16-byte
// Eq. (6) block in, equality with the two-step and crypto/aes forms out.
func FuzzHopMAC(f *testing.F) {
	f.Add(make([]byte, 16), make([]byte, 48), make([]byte, 16))
	f.Add([]byte("\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c"),
		[]byte("\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34"+
			"\x00\x11\x22\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc\xdd\xee\xff"+
			"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"),
		[]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"))
	f.Fuzz(func(t *testing.T, k, in, b []byte) {
		if len(k) != 16 || len(in) != 48 || len(b) != 16 {
			t.Skip()
		}
		checkHopMAC(t, Key(k), [48]byte(in), [16]byte(b))
	})
}

// blockCMAC is RFC 4493 over a cipher.Block, here a crypto/aes one: CMAC.Sum
// as it was before it moved onto the schedule.
func blockCMAC(block cipher.Block, msg []byte) (x [16]byte) {
	var k1, k2, last [16]byte
	block.Encrypt(k1[:], k1[:])
	dbl(&k1, &k1)
	dbl(&k2, &k1)
	for len(msg) > 16 {
		subtle.XORBytes(x[:], x[:], msg[:16])
		block.Encrypt(x[:], x[:])
		msg = msg[16:]
	}
	pad := k1
	if copy(last[:], msg) < 16 {
		last[len(msg)], pad = 0x80, k2
	}
	subtle.XORBytes(x[:], x[:], last[:])
	subtle.XORBytes(x[:], x[:], pad[:])
	block.Encrypt(x[:], x[:])
	return x
}

// laneKeys returns n random keys, each a repeat of the one before it one
// time in four.
func laneKeys(rng *rand.Rand, n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		if i > 0 && rng.Intn(4) == 0 {
			keys[i] = keys[i-1]
		} else {
			rng.Read(keys[i][:])
		}
	}
	return keys
}

// checkCMACLanes holds SumCMACs of msg under keys, four at a time as
// signPath runs a path's hop keys, to SumInto and to the crypto/aes block form
// under each key, and checks that no lane writes past its own MAC. A repeated
// key is the same CMAC in both lanes one time in two.
func checkCMACLanes(t *testing.T, rng *rand.Rand, keys []Key, msg []byte) {
	t.Helper()
	cs := make([]*CMAC, len(keys))
	for i, key := range keys {
		if i > 0 && key == keys[i-1] && rng.Intn(2) == 0 {
			cs[i] = cs[i-1]
		} else {
			cs[i] = MustCMAC(key)
		}
	}
	macs := make([][MACSize]byte, len(keys)+1)
	macs[len(keys)] = sentinel
	for i := 0; i < len(cs); i += MaxLanes {
		j := min(i+MaxLanes, len(cs))
		SumCMACs(macs[i:j], cs[i:j], msg)
	}
	if macs[len(keys)] != sentinel {
		t.Fatalf("%d lanes wrote past their MACs", len(keys))
	}
	for i, key := range keys {
		var one [MACSize]byte
		cs[i].SumInto(&one, msg)
		if want := blockCMAC(NewBlock(key), msg); macs[i] != want || one != want {
			t.Fatalf("%d keys, %d bytes, lane %d: SumCMACs = %x, SumInto = %x, block form = %x",
				len(keys), len(msg), i, macs[i], one, want)
		}
	}
}

// TestCMACMatchesBlockForm: CMAC on the expanded schedule equals the
// cipher.Block form — one chain over random keys and every length around the
// block boundaries, the empty message included; one to four lanes over every
// length 0–100, repeated keys included; and paths of 1 to packet.MaxHops hop
// keys run four at a time.
func TestCMACMatchesBlockForm(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 20_000; i++ {
		var key Key
		rng.Read(key[:])
		msg := make([]byte, i%81)
		rng.Read(msg)
		var got [MACSize]byte
		MustCMAC(key).SumInto(&got, msg)
		if want := blockCMAC(NewBlock(key), msg); got != want {
			t.Fatalf("len %d: SumInto = %x, block form = %x", len(msg), got, want)
		}
	}
	for n := 0; n <= 100; n++ {
		for lanes := 1; lanes <= MaxLanes; lanes++ {
			checkCMACLanes(t, rng, laneKeys(rng, lanes), laneMsgs(rng, 1, n)[0])
		}
	}
	for hops := 1; hops <= packet.MaxHops; hops++ {
		checkCMACLanes(t, rng, laneKeys(rng, hops), laneMsgs(rng, 1, 40+rng.Intn(200))[0])
	}
}

// FuzzCBCLanes: four keys, a message and a lane count in. The message is cut
// into that many pieces of one length; the kernel's chains over the pieces,
// each under its own key, must equal the scalar chains (the per-block loop
// over EncryptAES128) and the crypto/aes block form; so must SumLanes of the
// pieces under the first key, and SumCMACs of the whole message under the
// keys.
func FuzzCBCLanes(f *testing.F) {
	f.Add(make([]byte, 4*KeySize), []byte{}, uint8(3))
	f.Add([]byte("\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c"+
		"\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"+
		"\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c"+
		"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"),
		make([]byte, 4*packet.EERAuthLen), uint8(3))
	f.Fuzz(func(t *testing.T, k, msg []byte, n uint8) {
		if len(k) != MaxLanes*KeySize || len(msg) > 1<<12 {
			t.Skip()
		}
		lanes := 1 + int(n)%MaxLanes
		size := len(msg) / lanes
		var keys [MaxLanes]Key
		var cs [MaxLanes]*CMAC
		var kernel, scalar chains
		var lasts [MaxLanes][MACSize]byte
		var got, want [MaxLanes][MACSize]byte
		msgs := make([][]byte, lanes)
		for i := range keys {
			keys[i] = Key(k[i*KeySize:])
			cs[i] = MustCMAC(keys[i])
		}
		for i := range msgs {
			msgs[i] = msg[i*size : (i+1)*size]
			full, last := zeroPadLast(&lasts[i], msgs[i])
			kernel.ks[i], kernel.full[i], kernel.last[i], kernel.mac[i] = &cs[i].ks, full, last, &got[i]
			scalar.ks[i], scalar.full[i], scalar.last[i], scalar.mac[i] = &cs[i].ks, full, last, &want[i]
		}
		runChains(&kernel, lanes)
		cbcChainsSoft(&scalar, lanes)
		for i, msg := range msgs {
			std := blockCBCMAC(NewBlock(keys[i]), msg)
			if size == 0 {
				std = stdEncrypt(&keys[i], &[MACSize]byte{}) // a chain always runs its last block
			}
			if got[i] != want[i] || got[i] != std {
				t.Fatalf("lane %d of %d, %d bytes: kernel = %x, scalar chain = %x, crypto/aes = %x", i, lanes, size, got[i], want[i], std)
			}
		}
		MustCBCMAC(keys[0]).SumLanes(got[:lanes], msgs)
		for i, msg := range msgs {
			if std := blockCBCMAC(NewBlock(keys[0]), msg); got[i] != std {
				t.Fatalf("lane %d of %d under one key, %d bytes: SumLanes = %x, crypto/aes = %x", i, lanes, size, got[i], std)
			}
		}
		SumCMACs(got[:lanes], cs[:lanes], msg)
		for i := range lanes {
			if std := blockCMAC(NewBlock(keys[i]), msg); got[i] != std {
				t.Fatalf("CMAC lane %d of %d, %d bytes: SumCMACs = %x, crypto/aes = %x", i, lanes, len(msg), got[i], std)
			}
		}
	})
}

// TestAESKernelNoAlloc pins 0 allocs/op for the hot entry points.
func TestAESKernelNoAlloc(t *testing.T) {
	key := Key{1, 2, 3}
	var ks AESSchedule
	var block, out [16]byte
	var in [48]byte
	msg := make([]byte, 48)
	cbc, cmac := MustCBCMAC(key), MustCMAC(key)
	var macs [MaxLanes][MACSize]byte
	msgs := [][]byte{msg, msg, msg, msg}
	cmacs := []*CMAC{cmac, MustCMAC(Key{4}), cmac, MustCMAC(Key{5})}
	for name, fn := range map[string]func(){
		"CMAC.SumInto":        func() { cmac.SumInto(&out, msg) },
		"ExpandAES128":        func() { ExpandAES128(&ks, &key) },
		"EncryptAES128":       func() { EncryptAES128(&ks, &out, &block) },
		"SigmaMAC":            func() { SigmaMAC(&ks, &key, &out, &block) },
		"CBCMAC.SumInto":      func() { cbc.SumInto(&out, msg) },
		"CBCMAC.HopMAC":       func() { cbc.HopMAC(&in, &block, &out) },
		"CBCMAC.SumLanes (3)": func() { cbc.SumLanes(macs[:3], msgs[:3]) },
		"CBCMAC.SumLanes (4)": func() { cbc.SumLanes(macs[:], msgs) },
		"SumCMACs (1)":        func() { SumCMACs(macs[:1], cmacs[:1], msg) },
		"SumCMACs (4)":        func() { SumCMACs(macs[:], cmacs, msg) },
	} {
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, a)
		}
	}
}
