//go:build amd64 && !purego

package cryptoutil

// The AES-NI kernel (aes_amd64.s). useAESNI is fixed at init from CPUID;
// an amd64 CPU without AES or SSSE3 runs the T-table code instead.
var useAESNI = cpuHasAESNI()

// cpuHasAESNI reports CPUID.1:ECX bits 25 (AES) and 9 (SSSE3).
func cpuHasAESNI() bool

//go:noescape
func expandAESNI(ks *AESSchedule, key *Key)

//go:noescape
func encryptAESNI(ks *AESSchedule, dst, src *[16]byte)

// sigmaMACAESNI expands sigma and encrypts block in one pass; the round
// keys never leave registers.
//
//go:noescape
func sigmaMACAESNI(sigma *Key, mac, block *[16]byte)

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
