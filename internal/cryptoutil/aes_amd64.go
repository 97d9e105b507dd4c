//go:build amd64 && !purego

package cryptoutil

// The AES-NI kernel (aes_amd64.s). useAESNI is fixed at init from CPUID;
// an amd64 CPU without AES or SSSE3 runs the T-table code instead.
var useAESNI = cpuHasAESNI()

// cpuHasAESNI reports CPUID.1:ECX bits 25 (AES) and 9 (SSSE3).
func cpuHasAESNI() bool

//go:noescape
func expandAESNI(ks *AESSchedule, key *Key)

// The one-block GCM kernel (gcm_amd64.s) also wants PCLMULQDQ and SSE4.1.
var useGCMOne = useAESNI && cpuHasPCLMUL()

// cpuHasPCLMUL reports CPUID.1:ECX bits 1 (PCLMULQDQ) and 19 (SSE4.1).
func cpuHasPCLMUL() bool

// gcmInitAESNI computes gk's powers of the hash key from its schedule.
//
//go:noescape
func gcmInitAESNI(gk *gcmKey)

// gcmOneAESNI seals (seal) or opens one block under gk: out is in ⊕
// E_K(J0+1), and tag the GCM tag of ad's first adLen bytes and of the
// ciphertext, out when sealing and in when opening.
//
//go:noescape
func gcmOneAESNI(gk *gcmKey, j0, ad *[16]byte, adLen uint64, in, out, tag *[16]byte, seal bool)

//go:noescape
func encryptAESNI(ks *AESSchedule, dst, src *[16]byte)

// sigmaMACAESNI expands sigma and encrypts block in one pass; the round
// keys never leave registers.
//
//go:noescape
func sigmaMACAESNI(sigma *Key, mac, block *[16]byte)

// hopMACAESNI runs a router hop's CBC-MAC and σ-keyed MAC in one pass: ks's
// round keys are loaded once and σ never leaves registers.
//
//go:noescape
func hopMACAESNI(ks *AESSchedule, in *[48]byte, block, mac *[16]byte)

// cbcChainsAESNI runs the first lanes chains of c, each over blocks whole
// blocks and its last: one chain with its round keys held in registers, or
// four interleaved round by round.
//
//go:noescape
func cbcChainsAESNI(c *chains, lanes, blocks int)

// cbcChains runs the first lanes chains of c on the kernel. Two or three
// chains run as four, the spare lanes repeating the first: a spare lane costs
// issue slots, not latency.
//
//colibri:nomalloc
func cbcChains(c *chains, lanes int) {
	if !useAESNI {
		cbcChainsSoft(c, lanes)
		return
	}
	if lanes > 1 {
		for i := lanes; i < MaxLanes; i++ {
			c.ks[i], c.full[i], c.last[i], c.mac[i] = c.ks[0], c.full[0], c.last[0], c.mac[0]
		}
		lanes = MaxLanes
	}
	cbcChainsAESNI(c, lanes, len(c.full[0])/16)
}

// ExpandAES128 expands a 16-byte key into the caller's schedule without
// allocating.
//
//colibri:nomalloc
func ExpandAES128(ks *AESSchedule, key *Key) {
	if useAESNI {
		expandAESNI(ks, key)
	} else {
		expandSoft(ks, key)
	}
}

// EncryptAES128 encrypts one 16-byte block with the expanded schedule,
// without allocating. dst and src may overlap.
//
//colibri:nomalloc
func EncryptAES128(ks *AESSchedule, dst, src *[16]byte) {
	if useAESNI {
		encryptAESNI(ks, dst, src)
	} else {
		encryptSoft(ks, dst, src)
	}
}

// SigmaMAC computes MAC_σ(block) = AES-128_σ(block) without allocating:
// the Eq. (6) step with a per-packet σ key. ks is scratch; its contents
// after the call are unspecified (the AES-NI path never writes it).
//
//colibri:nomalloc
func SigmaMAC(ks *AESSchedule, sigma *Key, mac *[MACSize]byte, block *[16]byte) {
	if useAESNI {
		sigmaMACAESNI(sigma, mac, block)
	} else {
		expandSoft(ks, sigma)
		encryptSoft(ks, mac, block)
	}
}

// HopMAC computes a border router's two per-packet MACs in one kernel: the
// hop authenticator σ = CBC-MAC over the 48-byte Eq. (4) input, then
// mac = MAC_σ(block), the Eq. (6) step. σ is not returned. mac may alias
// block.
//
//colibri:nomalloc
func (m *CBCMAC) HopMAC(in *[48]byte, block, mac *[MACSize]byte) {
	if useAESNI {
		hopMACAESNI(&m.ks, in, block, mac)
	} else {
		m.hopMACSoft(in, block, mac)
	}
}
