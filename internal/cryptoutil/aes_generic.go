//go:build !amd64 || purego

package cryptoutil

// cbcChains runs the first lanes chains of c one after another.
//
//colibri:nomalloc
func cbcChains(c *chains, lanes int) { cbcChainsSoft(c, lanes) }

// ExpandAES128 expands a 16-byte key into the caller's schedule without
// allocating.
//
//colibri:nomalloc
func ExpandAES128(ks *AESSchedule, key *Key) { expandSoft(ks, key) }

// EncryptAES128 encrypts one 16-byte block with the expanded schedule,
// without allocating. dst and src may overlap.
//
//colibri:nomalloc
func EncryptAES128(ks *AESSchedule, dst, src *[16]byte) { encryptSoft(ks, dst, src) }

// SigmaMAC computes MAC_σ(block) = AES-128_σ(block) without allocating:
// the Eq. (6) step with a per-packet σ key. ks is scratch; its contents
// after the call are unspecified.
//
//colibri:nomalloc
func SigmaMAC(ks *AESSchedule, sigma *Key, mac *[MACSize]byte, block *[16]byte) {
	expandSoft(ks, sigma)
	encryptSoft(ks, mac, block)
}

// HopMAC computes a border router's two per-packet MACs: the hop
// authenticator σ = CBC-MAC over the 48-byte Eq. (4) input, then
// mac = MAC_σ(block), the Eq. (6) step. σ is not returned. mac may alias
// block.
//
//colibri:nomalloc
func (m *CBCMAC) HopMAC(in *[48]byte, block, mac *[MACSize]byte) { m.hopMACSoft(in, block, mac) }

// This build has no one-block GCM kernel: every seal and open runs
// crypto/cipher's GCM.
const useGCMOne = false

func gcmInitAESNI(*gcmKey) { panic("cryptoutil: no GCM kernel in this build") }

func gcmOneAESNI(*gcmKey, *[16]byte, *[16]byte, uint64, *[16]byte, *[16]byte, *[16]byte, bool) {
	panic("cryptoutil: no GCM kernel in this build")
}
