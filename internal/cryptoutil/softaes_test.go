package cryptoutil

import (
	"crypto/aes"
	"testing"
	"testing/quick"
)

// TestSoftAESMatchesStdlib: the software AES must be bit-identical to
// crypto/aes for random keys and blocks.
func TestSoftAESMatchesStdlib(t *testing.T) {
	f := func(key Key, block [16]byte) bool {
		std, err := aes.NewCipher(key[:])
		if err != nil {
			return false
		}
		var want [16]byte
		std.Encrypt(want[:], block[:])

		var ks AESSchedule
		var got [16]byte
		ExpandAES128(&ks, &key)
		EncryptAES128(&ks, &got, &block)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSoftAESFIPSVector checks the FIPS-197 appendix C.1 test vector.
func TestSoftAESFIPSVector(t *testing.T) {
	key := Key{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
		0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f}
	pt := [16]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
		0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	want := [16]byte{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
		0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a}
	var ks AESSchedule
	var got [16]byte
	ExpandAES128(&ks, &key)
	EncryptAES128(&ks, &got, &pt)
	if got != want {
		t.Errorf("FIPS-197 vector: got %x want %x", got, want)
	}
}

func TestSigmaMACMatchesTwoStep(t *testing.T) {
	sigma := Key{7, 7, 7}
	block := [16]byte{1, 2, 3}
	var ks AESSchedule
	var got [MACSize]byte
	SigmaMAC(&ks, &sigma, &got, &block)

	var want [MACSize]byte
	MACOneBlock(NewBlock(sigma), &want, &block)
	if got != want {
		t.Errorf("SigmaMAC %x != two-step %x", got, want)
	}
}

func BenchmarkSigmaMAC(b *testing.B) {
	sigma := Key{1}
	block := [16]byte{2}
	var ks AESSchedule
	var mac [MACSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SigmaMAC(&ks, &sigma, &mac, &block)
	}
}

// BenchmarkHopMAC times a router hop's MACs: "fused" is the one-kernel
// HopMAC, "two-step" is SumInto then SigmaMAC.
func BenchmarkHopMAC(b *testing.B) {
	cbc := MustCBCMAC(Key{1})
	in := [48]byte{3}
	block := [16]byte{2}
	var mac [MACSize]byte
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			cbc.HopMAC(&in, &block, &mac)
		}
	})
	b.Run("two-step", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			cbc.hopMACSoft(&in, &block, &mac)
		}
	})
}
