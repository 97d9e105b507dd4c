package cryptoutil

import (
	"crypto/aes"
	"crypto/subtle"
	"errors"
)

// Every control-plane CBC chain — a CMAC, a CBC-MAC, the σs of a renewal wave
// and the initiator's per-hop MACs of one request — runs on one kernel that
// takes one to four independent chains per call. A chain is serial: each
// block waits for the previous one's ten AES rounds. On AES-NI a round's
// latency is several times its issue cost, so one chain leaves the unit mostly
// idle, and four chains interleaved round by round finish in about the time
// one chain's latency takes.

// MaxLanes is how many chains one kernel call runs abreast.
const MaxLanes = 4

// chains describes up to MaxLanes CBC chains for one kernel call: chain i
// runs under ks[i] over full[i] (whole blocks, the same number in every chain)
// and then last[i], from a zero IV, and leaves its final value in mac[i]. The
// kernel writes the MACs after it has read every input.
type chains struct {
	ks   [MaxLanes]*AESSchedule
	full [MaxLanes][]byte
	last [MaxLanes]*[aes.BlockSize]byte
	mac  [MaxLanes]*[MACSize]byte
}

// splitLast splits msg into its whole blocks before the final block and the
// final block, 1 to 16 bytes (both empty for an empty msg).
//
//colibri:nomalloc
func splitLast(msg []byte) (full, last []byte) {
	n := (len(msg) - 1) / aes.BlockSize * aes.BlockSize
	return msg[:n], msg[n:]
}

// cbcChainsSoft is the kernel as a per-block loop: the T-table body (through
// EncryptAES128), and the oracle the AES-NI kernel is held to.
//
//colibri:nomalloc
func cbcChainsSoft(c *chains, lanes int) {
	var x [MaxLanes][aes.BlockSize]byte
	for i := range lanes {
		for full := c.full[i]; len(full) > 0; full = full[aes.BlockSize:] {
			subtle.XORBytes(x[i][:], x[i][:], full[:aes.BlockSize])
			EncryptAES128(c.ks[i], &x[i], &x[i])
		}
		subtle.XORBytes(x[i][:], x[i][:], c.last[i][:])
		EncryptAES128(c.ks[i], &x[i], &x[i])
	}
	for i := range lanes {
		*c.mac[i] = x[i]
	}
}

// runChains runs the first lanes chains of c, 1 ≤ lanes ≤ MaxLanes. Every
// chain must have as many whole blocks as the first.
//
//colibri:nomalloc
func runChains(c *chains, lanes int) {
	for i := 1; i < lanes; i++ {
		if len(c.full[i]) != len(c.full[0]) {
			panic(errUnevenChains)
		}
	}
	cbcChains(c, lanes)
}

// errUnevenChains reports chains of one call with different block counts.
var errUnevenChains = errors.New("cryptoutil: chains of one call differ in length")
