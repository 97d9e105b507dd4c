//go:build amd64 && !purego

package cryptoutil

import "testing"

// TestAESKernelCPUIDFallback runs the exported entry points, the chain lanes
// included, as an amd64 CPU without AES-NI would: through the T-table code,
// and every σ seal and open through crypto/cipher's GCM.
func TestAESKernelCPUIDFallback(t *testing.T) {
	if !useAESNI {
		t.Skip("CPU has no AES-NI: every other test already runs the fallback")
	}
	useAESNI, useGCMOne = false, false
	defer func() { useAESNI, useGCMOne = true, cpuHasPCLMUL() }()
	TestAESKernelFIPS197(t)
	TestHopMACMatchesTwoStep(t)
	TestCBCMACMatchesBlockForm(t)
	TestCMACMatchesBlockForm(t)
	TestCMACRFC4493Vectors(t)
	TestAESKernelNoAlloc(t)
	TestKnownAnswers(t)
	TestSealOneBlockMatchesCipher(t)
}
