package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
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
// mac, the whole chain in one kernel call. The empty message's MAC is zero.
// It performs no heap allocation.
//
//colibri:nomalloc
func (m *CBCMAC) SumInto(mac *[MACSize]byte, msg []byte) {
	if len(msg) == 0 {
		*mac = [MACSize]byte{}
		return
	}
	var c chains
	var pad [aes.BlockSize]byte
	c.full[0], c.last[0] = zeroPadLast(&pad, msg)
	c.ks[0], c.mac[0] = &m.ks, mac
	runChains(&c, 1)
}

// SumLanes computes the CBC-MAC of msgs[i] into macs[i] for every i, the
// chains abreast in one kernel call: at most four messages, either all empty or
// all non-empty with as many whole blocks before their last as the first. No
// MAC may overlap a message.
//
//colibri:nomalloc
func (m *CBCMAC) SumLanes(macs [][MACSize]byte, msgs [][]byte) {
	if len(msgs) == 0 || len(msgs[0]) == 0 {
		clear(macs[:len(msgs)])
		return
	}
	var c chains
	var pad [MaxLanes][aes.BlockSize]byte
	for i, msg := range msgs {
		c.full[i], c.last[i] = zeroPadLast(&pad[i], msg)
		c.ks[i], c.mac[i] = &m.ks, &macs[i]
	}
	runChains(&c, len(msgs))
}

// zeroPadLast splits a non-empty msg into the whole blocks before its final
// block and the final block: in msg when whole, else zero-padded into pad.
//
//colibri:nomalloc
func zeroPadLast(pad *[aes.BlockSize]byte, msg []byte) (full []byte, last *[aes.BlockSize]byte) {
	full, rest := splitLast(msg)
	if len(rest) == aes.BlockSize {
		return full, (*[aes.BlockSize]byte)(rest)
	}
	copy(pad[:], rest)
	return full, pad
}

// hopMACSoft is HopMAC as two calls, SumInto then SigmaMAC: the T-table
// body, and the oracle the AES-NI kernel is held to.
//
//colibri:nomalloc
func (m *CBCMAC) hopMACSoft(in *[48]byte, block, mac *[MACSize]byte) {
	var sigma Key
	var ks AESSchedule
	m.SumInto((*[MACSize]byte)(&sigma), in[:])
	SigmaMAC(&ks, &sigma, mac, block)
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
