// Package router is the nomalloc fixture: ProcessBatch reintroduces the
// acceptance checklist's seeded bug (a per-batch heap allocation inside an
// annotated hot function), Clean shows the conforming shape, and Amortized
// the documented growth path.
package router

// ProcessBatch allocates its result on every call: finding.
//
//colibri:nomalloc
func ProcessBatch(pkts [][]byte) []int {
	out := make([]int, len(pkts))
	for i, p := range pkts {
		out[i] = len(p)
	}
	return out
}

// Clean writes into caller-owned memory: clean.
//
//colibri:nomalloc
func Clean(pkts [][]byte, out []int) {
	for i, p := range pkts {
		out[i] = len(p)
	}
}

// Amortized documents a permitted growth allocation: suppressed.
//
//colibri:nomalloc
func Amortized(buf []byte, n int) []byte {
	if cap(buf) < n {
		buf = make([]byte, n) //colibri:allow(nomalloc) — fixture: amortized growth
	}
	return buf[:n]
}

// Unannotated's doc mentions the //colibri:nomalloc directive in prose
// without being one, so it may allocate: clean.
func Unannotated(n int) []int {
	return make([]int, n)
}
