package admission

import (
	"math/rand"
	"testing"

	"colibri/internal/topology"
)

// TestNaiveMatchesMemoized cross-checks the memoized implementation: for a
// random sequence of admissions and releases, both implementations must
// produce identical grants (the memoization is exact, not approximate).
func TestNaiveMatchesMemoized(t *testing.T) {
	as := testAS(t, 3, 100_000)
	fast := NewState(as, DefaultSplit)
	slow := NewNaiveState(as, DefaultSplit)
	rng := rand.New(rand.NewSource(99))
	var live []Request
	for i := 0; i < 1500; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			fast.Release(live[k].ID)
			slow.Release(live[k].ID)
			live = append(live[:k], live[k+1:]...)
			continue
		}
		r := req(uint32(i+1), ia(1, topology.ASID(10+rng.Intn(40))),
			topology.IfID(rng.Intn(2)+1), 3, 0, uint64(1+rng.Intn(20_000)))
		gf, ef := fast.AdmitSegR(r)
		gs, es := slow.AdmitSegR(r)
		if (ef == nil) != (es == nil) {
			t.Fatalf("iteration %d: fast err %v, slow err %v", i, ef, es)
		}
		if gf != gs {
			t.Fatalf("iteration %d: fast grant %d, slow grant %d", i, gf, gs)
		}
		if ef == nil {
			live = append(live, r)
		}
	}
	if fast.Len() != slow.Len() {
		t.Errorf("Len: %d vs %d", fast.Len(), slow.Len())
	}
}

// BenchmarkAblationNaiveVsMemoized quantifies the Fig. 3 design choice: the
// naive O(n) admission vs. the memoized O(1) one at 10 000 existing SegRs.
func BenchmarkAblationNaiveVsMemoized(b *testing.B) {
	populate := func(admit func(Request) (uint64, error)) {
		for i := uint32(0); i < 10_000; i++ {
			r := req(i, ia(1, topology.ASID(10+i%100)), 1, 2, 0, 10)
			if _, err := admit(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	probe := req(1<<30, ia(1, 7), 1, 2, 0, 10)

	b.Run("memoized", func(b *testing.B) {
		st := NewState(testAS(b, 2, 100_000_000), DefaultSplit)
		populate(st.AdmitSegR)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.AdmitSegR(probe); err != nil {
				b.Fatal(err)
			}
			st.Release(probe.ID)
		}
	})
	b.Run("naive", func(b *testing.B) {
		st := NewNaiveState(testAS(b, 2, 100_000_000), DefaultSplit)
		populate(st.AdmitSegR)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.AdmitSegR(probe); err != nil {
				b.Fatal(err)
			}
			st.Release(probe.ID)
		}
	})
}
