package cryptoutil

import (
	"crypto/cipher"
	"encoding/binary"
)

// Allocation-free AES-128 for the data-plane hot path.
//
// The two-step HVF computation (Eq. 6) uses the per-reservation hop
// authenticator σ as an AES key that changes with every packet at border
// routers. crypto/aes allocates a fresh key schedule per cipher (one
// 512-byte heap object per key), and at millions of packets per second
// over multi-hundred-megabyte gateway state the garbage collector
// dominates (the live reservation heap gets scanned for every few MB
// allocated). The data plane therefore expands keys into a caller-owned
// AESSchedule and encrypts from it — zero allocation, deterministic cost.
//
// Two implementations sit behind ExpandAES128 / EncryptAES128 / SigmaMAC,
// selected by build tag and CPUID only: the AES-NI kernel of aes_amd64.s
// (amd64, CPU has AES and SSSE3) and the classic T-table code in this file
// (every other platform, -tags purego, and the tests' oracle). Both produce
// bit-identical output to crypto/aes (verified in tests), so gateways and
// routers built either way, and anything signing with crypto/aes, may mix
// freely.

// AESSchedule is an expanded AES-128 encryption key schedule: eleven round
// keys in 176 caller-owned bytes. The word layout is private to the
// implementation that expanded it (big-endian words for the T-table code,
// memory byte order for AES-NI); use it only through this package.
type AESSchedule [44]uint32

// sbox is the AES S-box.
var sbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

// Encryption T-tables, generated from the S-box at init.
var te0, te1, te2, te3 [256]uint32

func init() {
	for i := 0; i < 256; i++ {
		s := uint32(sbox[i])
		s2 := xtime(byte(s))
		s3 := s2 ^ byte(s)
		w := uint32(s2)<<24 | s<<16 | s<<8 | uint32(s3)
		te0[i] = w
		te1[i] = w>>8 | w<<24
		te2[i] = w>>16 | w<<16
		te3[i] = w>>24 | w<<8
	}
}

func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

var rcon = [10]uint32{
	0x01000000, 0x02000000, 0x04000000, 0x08000000, 0x10000000,
	0x20000000, 0x40000000, 0x80000000, 0x1b000000, 0x36000000,
}

// expandSoft is the portable ExpandAES128.
//
//colibri:nomalloc
func expandSoft(ks *AESSchedule, key *Key) {
	ks[0] = binary.BigEndian.Uint32(key[0:4])
	ks[1] = binary.BigEndian.Uint32(key[4:8])
	ks[2] = binary.BigEndian.Uint32(key[8:12])
	ks[3] = binary.BigEndian.Uint32(key[12:16])
	for i := 4; i < 44; i += 4 {
		t := ks[i-1]
		// RotWord + SubWord + Rcon.
		t = uint32(sbox[byte(t>>16)])<<24 | uint32(sbox[byte(t>>8)])<<16 |
			uint32(sbox[byte(t)])<<8 | uint32(sbox[byte(t>>24)])
		t ^= rcon[i/4-1]
		ks[i] = ks[i-4] ^ t
		ks[i+1] = ks[i-3] ^ ks[i]
		ks[i+2] = ks[i-2] ^ ks[i+1]
		ks[i+3] = ks[i-1] ^ ks[i+2]
	}
}

// encryptSoft is the portable EncryptAES128, for a schedule expandSoft
// filled.
//
//colibri:nomalloc
func encryptSoft(ks *AESSchedule, dst, src *[16]byte) {
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ ks[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ ks[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ ks[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ ks[3]

	var t0, t1, t2, t3 uint32
	k := 4
	for r := 0; r < 9; r++ {
		t0 = te0[byte(s0>>24)] ^ te1[byte(s1>>16)] ^ te2[byte(s2>>8)] ^ te3[byte(s3)] ^ ks[k]
		t1 = te0[byte(s1>>24)] ^ te1[byte(s2>>16)] ^ te2[byte(s3>>8)] ^ te3[byte(s0)] ^ ks[k+1]
		t2 = te0[byte(s2>>24)] ^ te1[byte(s3>>16)] ^ te2[byte(s0>>8)] ^ te3[byte(s1)] ^ ks[k+2]
		t3 = te0[byte(s3>>24)] ^ te1[byte(s0>>16)] ^ te2[byte(s1>>8)] ^ te3[byte(s2)] ^ ks[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}
	// Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
	s0 = uint32(sbox[byte(t0>>24)])<<24 | uint32(sbox[byte(t1>>16)])<<16 |
		uint32(sbox[byte(t2>>8)])<<8 | uint32(sbox[byte(t3)])
	s1 = uint32(sbox[byte(t1>>24)])<<24 | uint32(sbox[byte(t2>>16)])<<16 |
		uint32(sbox[byte(t3>>8)])<<8 | uint32(sbox[byte(t0)])
	s2 = uint32(sbox[byte(t2>>24)])<<24 | uint32(sbox[byte(t3>>16)])<<16 |
		uint32(sbox[byte(t0>>8)])<<8 | uint32(sbox[byte(t1)])
	s3 = uint32(sbox[byte(t3>>24)])<<24 | uint32(sbox[byte(t0>>16)])<<16 |
		uint32(sbox[byte(t1>>8)])<<8 | uint32(sbox[byte(t2)])
	s0 ^= ks[40]
	s1 ^= ks[41]
	s2 ^= ks[42]
	s3 ^= ks[43]
	binary.BigEndian.PutUint32(dst[0:4], s0)
	binary.BigEndian.PutUint32(dst[4:8], s1)
	binary.BigEndian.PutUint32(dst[8:12], s2)
	binary.BigEndian.PutUint32(dst[12:16], s3)
}

// AESSchedule implements cipher.Block (encryption only), so an expanded
// schedule can stand in wherever a crypto/aes cipher is expected.
var _ cipher.Block = (*AESSchedule)(nil)

// BlockSize implements cipher.Block.
func (ks *AESSchedule) BlockSize() int { return 16 }

// Encrypt implements cipher.Block; dst and src must be at least 16 bytes.
func (ks *AESSchedule) Encrypt(dst, src []byte) {
	EncryptAES128(ks, (*[16]byte)(dst), (*[16]byte)(src))
}

// Decrypt implements cipher.Block. The data plane only ever encrypts (the
// CBC-MAC and HVF computations run AES forward), so no decryption
// schedule is kept.
func (ks *AESSchedule) Decrypt(dst, src []byte) {
	panic("cryptoutil: AESSchedule is encrypt-only")
}
