// Package cryptoutil provides the symmetric-cryptography primitives Colibri
// relies on: AES-CMAC (RFC 4493) for pseudo-random functions and
// control-plane MACs, and an allocation-free AES-CBC-MAC for the data-plane
// hot path (hop authenticators and hop validation fields).
//
// The paper computes all per-packet tags with "the AES-128 block cipher in
// CBC mode through native hardware-accelerated instructions" (§7.1); both
// MACs run on this package's AES-NI kernel on amd64 (aes_amd64.s), so the
// per-packet and per-request work here matches the paper's.
package cryptoutil

import (
	"crypto/aes"
	"crypto/subtle"
)

// KeySize is the AES-128 key size in bytes used throughout Colibri.
const KeySize = 16

// MACSize is the size of an untruncated MAC output.
const MACSize = aes.BlockSize

// Key is a 16-byte AES-128 key.
type Key [KeySize]byte

// CMAC implements the AES-CMAC message-authentication code of RFC 4493. It
// is safe for variable-length messages (unlike plain CBC-MAC) and therefore
// used as the PRF for DRKey derivation and for control-plane payload MACs.
//
// A CMAC is immutable once built.
type CMAC struct {
	// ks is the key's schedule, expanded once: the chain runs on the kernel
	// the data-plane MACs use, with no cipher.Block dispatch per block.
	ks     AESSchedule
	k1, k2 [aes.BlockSize]byte
}

// NewCMAC builds a CMAC instance for the given key. The AES key schedule is
// computed once, so instances should be cached and reused where possible.
// The error is always nil (a Key has the one valid length).
func NewCMAC(key Key) (*CMAC, error) {
	c := new(CMAC)
	ExpandAES128(&c.ks, &key)
	// Subkey generation per RFC 4493 §2.3.
	var l [aes.BlockSize]byte
	EncryptAES128(&c.ks, &l, &l)
	dbl(&c.k1, &l)
	dbl(&c.k2, &c.k1)
	return c, nil
}

// MustCMAC is NewCMAC for setup code; it panics on error (which for a
// 16-byte key cannot happen).
func MustCMAC(key Key) *CMAC {
	c, err := NewCMAC(key)
	if err != nil {
		panic(err)
	}
	return c
}

// dbl doubles a 128-bit value in GF(2^128) as required for CMAC subkeys.
func dbl(dst, src *[aes.BlockSize]byte) {
	var carry byte
	for i := aes.BlockSize - 1; i >= 0; i-- {
		b := src[i]
		dst[i] = b<<1 | carry
		carry = b >> 7
	}
	if carry != 0 {
		dst[aes.BlockSize-1] ^= 0x87
	}
}

// SumInto computes the CMAC of msg into mac.
func (c *CMAC) SumInto(mac *[MACSize]byte, msg []byte) {
	c.sum(mac, msg)
}

// sum computes the CMAC of msg into mac, the whole chain in one kernel call.
//
//colibri:nomalloc
func (c *CMAC) sum(mac *[MACSize]byte, msg []byte) {
	var ch chains
	var last [aes.BlockSize]byte
	ch.ks[0], ch.full[0], ch.last[0], ch.mac[0] = &c.ks, c.lastBlock(&last, msg), &last, mac
	runChains(&ch, 1)
}

// SumCMACs computes the CMAC of msg under cs[i] into macs[i] for every i, the
// chains abreast in one kernel call: at most four CMACs. No MAC may overlap
// msg.
//
//colibri:nomalloc
func SumCMACs(macs [][MACSize]byte, cs []*CMAC, msg []byte) {
	var ch chains
	var last [MaxLanes][aes.BlockSize]byte
	for i, c := range cs {
		ch.ks[i], ch.full[i], ch.last[i], ch.mac[i] = &c.ks, c.lastBlock(&last[i], msg), &last[i], &macs[i]
	}
	runChains(&ch, len(cs))
}

// lastBlock writes msg's final block as RFC 4493 §2.4 has it (complete → XOR
// K1; partial → padded, XOR K2) into last and returns the whole blocks before
// it.
//
//colibri:nomalloc
func (c *CMAC) lastBlock(last *[aes.BlockSize]byte, msg []byte) (full []byte) {
	full, rest := splitLast(msg)
	if len(rest) == aes.BlockSize {
		subtle.XORBytes(last[:], rest, c.k1[:])
		return full
	}
	copy(last[:], rest)
	last[len(rest)] = 0x80
	subtle.XORBytes(last[:], last[:], c.k2[:])
	return full
}

// DeriveKey uses the CMAC as a PRF to derive a subordinate 16-byte key from
// the input, as DRKey does: K_out = PRF_K(input).
func (c *CMAC) DeriveKey(input []byte) Key {
	var mac [MACSize]byte
	c.sum(&mac, input)
	return Key(mac)
}

// ConstantTimeEqual compares two MAC slices without leaking timing.
func ConstantTimeEqual(a, b []byte) bool {
	return len(a) == len(b) && subtle.ConstantTimeCompare(a, b) == 1
}
