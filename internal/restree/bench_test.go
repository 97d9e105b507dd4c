package restree

import (
	"fmt"
	"testing"
)

// BenchmarkProfileChargeMax is one admission's ledger work — the peak over a
// window, a charge over it and its discharge — on the CServ's default ring
// (128 epochs of 4 s), for an EER's 16 s window and for the longest window the
// ring accepts, the whole ring: the worst case of the flat ring, three passes
// over 128 contiguous slots. The window slides by one epoch an operation, so
// it wraps the ring's end once every 128.
func BenchmarkProfileChargeMax(b *testing.B) {
	const epochs, sec = 128, 4
	for _, span := range []uint32{4, epochs} {
		b.Run(fmt.Sprintf("window=%d", span), func(b *testing.B) {
			p := NewProfile(epochs, sec)
			now := uint32(1 << 20)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Advance(now)
				exp := now + span*sec
				_ = p.MaxDemand(now, exp)
				if err := p.Charge(now, exp, 100); err != nil {
					b.Fatal(err)
				}
				p.Discharge(now, exp, 100)
				now += sec
			}
		})
	}
}

func BenchmarkLedgerChurn(b *testing.B) {
	for _, keys := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			l := NewLedger[int](64, 1)
			now := uint32(100)
			for k := 0; k < keys; k++ {
				if err := l.Reserve(k, now, now+16, int64(k%1000+1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % keys
				if k == 0 {
					now += 8
					l.Advance(now)
				}
				if err := l.Renew(k, now, now+16, int64(k%1000+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
