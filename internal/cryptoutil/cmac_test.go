package cryptoutil

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCMACRFC4493Vectors checks the four official AES-128-CMAC test vectors.
func TestCMACRFC4493Vectors(t *testing.T) {
	key := Key(mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	msgFull := mustHex(t,
		"6bc1bee22e409f96e93d7e117393172a"+
			"ae2d8a571e03ac9c9eb76fac45af8e51"+
			"30c81c46a35ce411e5fbc1191a0a52ef"+
			"f69f2445df4f9b17ad2b417be66c3710")
	cases := []struct {
		name string
		msg  []byte
		want string
	}{
		{"empty", nil, "bb1d6929e95937287fa37d129b756746"},
		{"16B", msgFull[:16], "070a16b46b4d4144f79bdd9dd04a287c"},
		{"40B", msgFull[:40], "dfa66747de9ae63030ca32611497c827"},
		{"64B", msgFull, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	c := MustCMAC(key)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := c.Sum(nil, tc.msg)
			if want := mustHex(t, tc.want); !bytes.Equal(got, want) {
				t.Errorf("CMAC = %x, want %x", got, want)
			}
		})
	}
}

func TestCMACSumIntoMatchesSum(t *testing.T) {
	c := MustCMAC(Key{1, 2, 3})
	f := func(msg []byte) bool {
		var mac [MACSize]byte
		c.SumInto(&mac, msg)
		return bytes.Equal(mac[:], c.Sum(nil, msg))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCMACDistinguishesMessages(t *testing.T) {
	c := MustCMAC(Key{42})
	seen := make(map[[MACSize]byte][]byte)
	msgs := [][]byte{
		nil, {0}, {0, 0}, {1}, {0x80},
		bytes.Repeat([]byte{0}, 16), bytes.Repeat([]byte{0}, 17),
		[]byte("hello"), []byte("hellp"),
	}
	for _, m := range msgs {
		var mac [MACSize]byte
		c.SumInto(&mac, m)
		if prev, ok := seen[mac]; ok {
			t.Errorf("collision between %x and %x", prev, m)
		}
		seen[mac] = append([]byte(nil), m...)
	}
}

func TestCMACKeySeparation(t *testing.T) {
	a := MustCMAC(Key{1})
	b := MustCMAC(Key{2})
	msg := []byte("same message")
	if bytes.Equal(a.Sum(nil, msg), b.Sum(nil, msg)) {
		t.Error("different keys produced identical MACs")
	}
}

func TestDeriveKeyDeterministic(t *testing.T) {
	c := MustCMAC(Key{9})
	k1 := c.DeriveKey([]byte("peer-AS-1"))
	k2 := c.DeriveKey([]byte("peer-AS-1"))
	k3 := c.DeriveKey([]byte("peer-AS-2"))
	if k1 != k2 {
		t.Error("derivation not deterministic")
	}
	if k1 == k3 {
		t.Error("different inputs derived the same key")
	}
}

func TestCBCMACFixedLengthMatchesManual(t *testing.T) {
	key := Key{7, 7, 7}
	m := MustCBCMAC(key)
	block := NewBlock(key)

	// One-block message: CBC-MAC = E_K(msg).
	in := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	var want, got [MACSize]byte
	block.Encrypt(want[:], in[:])
	m.SumInto(&got, in[:])
	if got != want {
		t.Errorf("one-block CBC-MAC mismatch: %x vs %x", got, want)
	}

	// Two-block message: E_K(E_K(b0) ^ b1).
	msg := make([]byte, 32)
	for i := range msg {
		msg[i] = byte(i * 3)
	}
	var x [16]byte
	block.Encrypt(x[:], msg[:16])
	for i := 0; i < 16; i++ {
		x[i] ^= msg[16+i]
	}
	block.Encrypt(want[:], x[:])
	m.SumInto(&got, msg)
	if got != want {
		t.Errorf("two-block CBC-MAC mismatch: %x vs %x", got, want)
	}
}

func TestCBCMACPadding(t *testing.T) {
	m := MustCBCMAC(Key{1})
	var a, b [MACSize]byte
	m.SumInto(&a, []byte{1, 2, 3})
	m.SumInto(&b, append([]byte{1, 2, 3}, make([]byte, 13)...))
	// Zero-padding means a 3-byte message and its explicit zero-padded
	// 16-byte form MAC identically — acceptable for fixed-layout inputs,
	// and exactly why CBCMAC must only be used with fixed layouts.
	if a != b {
		t.Error("zero padding should make these equal (fixed-layout assumption)")
	}
}

func TestCBCMACDeterministicQuick(t *testing.T) {
	m := MustCBCMAC(Key{5, 5})
	f := func(msg []byte) bool {
		var a, b [MACSize]byte
		m.SumInto(&a, msg)
		m.SumInto(&b, msg)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstantTimeEqual(t *testing.T) {
	if !ConstantTimeEqual([]byte{1, 2}, []byte{1, 2}) {
		t.Error("equal slices reported unequal")
	}
	if ConstantTimeEqual([]byte{1, 2}, []byte{1, 3}) {
		t.Error("unequal slices reported equal")
	}
	if ConstantTimeEqual([]byte{1, 2}, []byte{1, 2, 3}) {
		t.Error("different lengths reported equal")
	}
}

func BenchmarkCMAC64B(b *testing.B) {
	c := MustCMAC(Key{1})
	msg := make([]byte, 64)
	var mac [MACSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.SumInto(&mac, msg)
	}
}

// BenchmarkCMAC35KB is the initiator's MAC of a 1024-item renewal wave's
// body towards one hop.
func BenchmarkCMAC35KB(b *testing.B) {
	c := MustCMAC(Key{1})
	msg := make([]byte, 35<<10)
	var mac [MACSize]byte
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for b.Loop() {
		c.SumInto(&mac, msg)
	}
}

// BenchmarkSigmaLanes times four σs (48-byte Eq. 4 inputs under one key):
// "abreast" is one SumLanes call, "serial" four SumInto calls.
func BenchmarkSigmaLanes(b *testing.B) {
	m := MustCBCMAC(Key{1})
	var in [MaxLanes][48]byte
	msgs := [][]byte{in[0][:], in[1][:], in[2][:], in[3][:]}
	var macs [MaxLanes][MACSize]byte
	b.Run("abreast", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			m.SumLanes(macs[:], msgs)
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for i, msg := range msgs {
				m.SumInto(&macs[i], msg)
			}
		}
	})
}

// BenchmarkPathMACs times an initiator's MACs of a 138-byte solo request body
// towards five hops: "abreast" is four lanes then one, as signPath runs them,
// "serial" five SumInto calls.
func BenchmarkPathMACs(b *testing.B) {
	cs := []*CMAC{MustCMAC(Key{1}), MustCMAC(Key{2}), MustCMAC(Key{3}), MustCMAC(Key{4}), MustCMAC(Key{5})}
	body := make([]byte, 138)
	macs := make([][MACSize]byte, len(cs))
	b.Run("abreast", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			SumCMACs(macs[:4], cs[:4], body)
			SumCMACs(macs[4:], cs[4:], body)
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for i, c := range cs {
				c.SumInto(&macs[i], body)
			}
		}
	})
}

func BenchmarkCBCMAC48B(b *testing.B) {
	m := MustCBCMAC(Key{1})
	msg := make([]byte, 48)
	var mac [MACSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.SumInto(&mac, msg)
	}
}

// BenchmarkTwoStepHVF measures the full router-side per-packet crypto: derive
// σ from the AS secret over a 48-byte input, expand σ, MAC one block.
func BenchmarkTwoStepHVF(b *testing.B) {
	m := MustCBCMAC(Key{1})
	authInput := make([]byte, 48)
	var sigma [MACSize]byte
	var tsBlock [16]byte
	var hvf [MACSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.SumInto(&sigma, authInput)
		block := NewBlock(Key(sigma))
		MACOneBlock(block, &hvf, &tsBlock)
	}
}
