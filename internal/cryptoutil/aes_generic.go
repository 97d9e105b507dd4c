//go:build !amd64 || purego

package cryptoutil

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
