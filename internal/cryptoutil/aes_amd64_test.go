//go:build amd64 && !purego

package cryptoutil

import "testing"

// TestAESKernelCPUIDFallback runs the exported entry points as an amd64 CPU
// without AES-NI would: through the T-table code.
func TestAESKernelCPUIDFallback(t *testing.T) {
	if !useAESNI {
		t.Skip("CPU has no AES-NI: every other test already runs the fallback")
	}
	useAESNI = false
	defer func() { useAESNI = true }()
	TestAESKernelFIPS197(t)
}
