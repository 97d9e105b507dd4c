package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestDoCProtection(t *testing.T) {
	rows := RunDoC()
	var setup, renewal DoCRow
	for _, r := range rows {
		switch r.Kind {
		case "initial SegReq":
			setup = r
		case "renewal over SegR":
			renewal = r
		}
	}
	// Renewals over existing reservations are fully isolated from the flood.
	if renewal.Delivered < renewal.Offered*99/100 {
		t.Errorf("renewals delivered %d of %d under flood", renewal.Delivered, renewal.Offered)
	}
	// Best-effort setup requests suffer badly under the 10x flood.
	if setup.Delivered >= setup.Offered/2 {
		t.Errorf("setups delivered %d of %d — flood had no effect?", setup.Delivered, setup.Offered)
	}
	if !strings.Contains(FormatDoC(rows), "denial-of-capability") {
		t.Error("FormatDoC header missing")
	}
}

func TestAblationsRun(t *testing.T) {
	rows := RunAblations(30 * time.Millisecond)
	byStudyVariant := map[string]float64{}
	for _, r := range rows {
		byStudyVariant[r.Study+"/"+r.Variant] = r.Value
	}
	memo := byStudyVariant["admission@10k SegRs/memoized (Colibri)"]
	naive := byStudyVariant["admission@10k SegRs/naive O(n)"]
	if memo <= 0 || naive <= 0 {
		t.Fatal("missing admission rows")
	}
	if naive < 20*memo {
		t.Errorf("naive (%0.f ns) not much slower than memoized (%0.f ns)", naive, memo)
	}
	// Protection stack adds bounded overhead (< 4x of bare crypto; ≈ 1.6x
	// measured). Both numbers are the fastest of interleaved passes, so a
	// loaded host — which slows the memory-bound full stack more than the
	// AES-NI one — moves them together or not at all.
	bare := byStudyVariant["border-router stack/crypto only"]
	full := byStudyVariant["border-router stack/+ replay + OFD"]
	if bare <= 0 || full <= 0 {
		t.Fatal("missing router-stack rows")
	}
	if full > 4*bare {
		t.Errorf("full stack %0.f ns vs bare %0.f ns — overhead too large", full, bare)
	}
	// Scheduler shares: strict gives EER everything under saturation; DRR
	// approximates 20/5/75.
	if byStudyVariant["scheduler (all classes @40G)/strict/colibri-eer"] < 35 {
		t.Error("strict priority did not give EER the link")
	}
	drrBE := byStudyVariant["scheduler (all classes @40G)/drr/best-effort"]
	if drrBE < 5 || drrBE > 12 {
		t.Errorf("DRR best-effort share %.1f Gbps, want ~8", drrBE)
	}
	if !strings.Contains(FormatAblations(rows), "Ablations") {
		t.Error("FormatAblations header missing")
	}
}
