package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/hex"
	"math/rand"
	"testing"
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

// TestCBCMACMatchesBlockForm: SumInto on the expanded schedule equals the
// cipher.Block form over random inputs of the data plane's lengths (16:
// HVF input, 32: SegR token input, 48: Eq. 4 input) and ragged ones.
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
		if want := blockCBCMAC(NewBlock(key), msg); got != want {
			t.Fatalf("len %d: SumInto = %x, block form = %x", n, got, want)
		}
	}
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

// TestCMACMatchesBlockForm: CMAC on the expanded schedule equals the
// cipher.Block form over random keys and every length around the block
// boundaries, the empty message included.
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
}

// TestAESKernelNoAlloc pins 0 allocs/op for the hot entry points.
func TestAESKernelNoAlloc(t *testing.T) {
	key := Key{1, 2, 3}
	var ks AESSchedule
	var block, out [16]byte
	msg := make([]byte, 48)
	cbc, cmac := MustCBCMAC(key), MustCMAC(key)
	for name, fn := range map[string]func(){
		"CMAC.SumInto":   func() { cmac.SumInto(&out, msg) },
		"ExpandAES128":   func() { ExpandAES128(&ks, &key) },
		"EncryptAES128":  func() { EncryptAES128(&ks, &out, &block) },
		"SigmaMAC":       func() { SigmaMAC(&ks, &key, &out, &block) },
		"CBCMAC.SumInto": func() { cbc.SumInto(&out, msg) },
	} {
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, a)
		}
	}
}
