package netsim_test

import "testing"

// FuzzParallelEquivalence drives Run over fuzzer-chosen topology shapes,
// seeds, fault treatments, and GOMAXPROCS values (1–8): any input where
// Run's event trace or final state differs from the global-key-order
// oracle's is a crash. The seed corpus deliberately includes the star
// shapes whose identical latencies and start times force same-timestamp key
// collisions (the tie-break is the only thing ordering them) and every
// fault variant.
func FuzzParallelEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(4))  // ring/clean
	f.Add(uint64(2), uint8(1), uint8(3))  // ring/loss-jitter
	f.Add(uint64(3), uint8(2), uint8(2))  // ring/partition
	f.Add(uint64(4), uint8(3), uint8(8))  // ring/crash
	f.Add(uint64(5), uint8(4), uint8(4))  // star/clean: same-t tie collisions
	f.Add(uint64(6), uint8(5), uint8(1))  // star/loss, inline drain
	f.Add(uint64(99), uint8(4), uint8(7)) // star collisions, odd GOMAXPROCS

	f.Fuzz(func(t *testing.T, seed uint64, variant, procs uint8) {
		v := equivVariants[int(variant)%len(equivVariants)]
		if r := matchReference(t, v.build(seed), runToEnd, int(procs%8)+1); r.events == 0 {
			t.Fatalf("%s seed=%d: scenario executed no events", v.name, seed)
		}
	})
}
