package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
)

// CBCMAC is a fixed-input-length AES-CBC-MAC for the data-plane hot path.
//
// Plain CBC-MAC is only secure for fixed-length (or length-prefixed)
// messages; Colibri's hop authenticators (Eq. 4) and hop validation fields
// (Eq. 6) are computed over fixed-layout header fields, so the cheap
// construction is safe here, exactly as in the paper's DPDK implementation.
// The input is zero-padded to a whole number of AES blocks; callers must
// ensure a fixed layout (they do: the inputs are packed structs).
//
// A CBCMAC is immutable once built.
type CBCMAC struct {
	// ks is the key's schedule, expanded once: the chain runs on the same
	// kernel as the σ-keyed MACs, with no cipher.Block dispatch per block.
	ks AESSchedule
}

// NewCBCMAC builds a CBC-MAC for the key, caching the AES key schedule.
// The error is always nil (a Key has the one valid length).
func NewCBCMAC(key Key) (*CBCMAC, error) {
	m := new(CBCMAC)
	ExpandAES128(&m.ks, &key)
	return m, nil
}

// MustCBCMAC is NewCBCMAC for setup code.
func MustCBCMAC(key Key) *CBCMAC {
	m, err := NewCBCMAC(key)
	if err != nil {
		panic(err)
	}
	return m
}

// SumInto computes the CBC-MAC of msg (zero-padded to a block boundary) into
// mac. It performs no heap allocation.
//
//colibri:nomalloc
func (m *CBCMAC) SumInto(mac *[MACSize]byte, msg []byte) {
	var x [aes.BlockSize]byte
	for len(msg) >= aes.BlockSize {
		subtle.XORBytes(x[:], x[:], msg[:aes.BlockSize])
		EncryptAES128(&m.ks, &x, &x)
		msg = msg[aes.BlockSize:]
	}
	if len(msg) > 0 {
		subtle.XORBytes(x[:], x[:], msg)
		EncryptAES128(&m.ks, &x, &x)
	}
	*mac = x
}

// MACOneBlock computes the CBC-MAC of exactly one 16-byte block with the
// given expanded cipher into mac. This is the innermost data-plane operation
// (Eq. 6: V = MAC_σ(Ts ‖ PktSize)), kept separate so the router can call it
// with zero bounds checks.
//
//colibri:nomalloc
func MACOneBlock(block cipher.Block, mac *[MACSize]byte, in *[aes.BlockSize]byte) {
	block.Encrypt(mac[:], in[:])
}

// NewBlock expands an AES-128 key schedule. The data plane derives a fresh
// hop authenticator σ per packet and must then expand it to MAC the
// timestamp block; this helper makes that step explicit and testable.
func NewBlock(key Key) cipher.Block {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // unreachable: key length is fixed
	}
	return block
}
