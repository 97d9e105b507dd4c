package restree

import (
	"fmt"
	"math/rand"
	"testing"
)

// refRing is the brute-force reference: a plain ring of per-epoch sums.
type refRing struct {
	n    int
	vals []int64
}

func newRefRing(n int) *refRing { return &refRing{n: n, vals: make([]int64, n)} }

func (r *refRing) add(start, end Epoch, delta int64) {
	for e := start; e < end; e++ {
		r.vals[int(e)%r.n] += delta
	}
}

func (r *refRing) max(start, end Epoch) int64 {
	m := r.vals[int(start)%r.n]
	for e := start; e < end; e++ {
		if v := r.vals[int(e)%r.n]; v > m {
			m = v
		}
	}
	return m
}

// TestTreeMatchesBruteForce drives random balanced add/subtract intervals and
// checks every Max/At query against the reference ring, at the ring sizes the
// CServ builds (128: the default ledger; 2 and 4: the smallest trees, where
// every interval touches the root's children) and one between. Half the
// intervals are an EER's 1–5-epoch window, the rest any span up to the whole
// ring; starts are drawn across a full ring ahead of the window's base, so
// intervals and queries wrap the ring often.
func TestTreeMatchesBruteForce(t *testing.T) {
	for _, epochs := range []int{2, 4, 64, 128} {
		t.Run(fmt.Sprint("ring", epochs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + epochs)))
			tr := NewTree(epochs)
			if tr.Epochs() != epochs {
				t.Fatalf("Epochs() = %d, want %d", tr.Epochs(), epochs)
			}
			ref := newRefRing(epochs)
			span := func() Epoch {
				if rng.Intn(2) == 0 {
					return Epoch(1 + rng.Intn(min(5, epochs)))
				}
				return Epoch(1 + rng.Intn(epochs))
			}
			wraps := func(start, end Epoch) bool { return int(start)%epochs+int(end-start) > epochs }

			type ival struct {
				start, end Epoch
				bw         int64
			}
			var live []ival
			base := Epoch(0)
			wrapped, short := 0, 0
			for op := 0; op < 5000; op++ {
				switch {
				case len(live) == 0 || rng.Intn(3) > 0:
					start := base + Epoch(rng.Intn(epochs))
					end := start + span()
					bw := int64(1 + rng.Intn(1000))
					if wraps(start, end) {
						wrapped++
					}
					if end-start <= 5 {
						short++
					}
					tr.Add(start, end, bw)
					ref.add(start, end, bw)
					live = append(live, ival{start, end, bw})
				default:
					// Remove a random live interval (balanced subtraction).
					i := rng.Intn(len(live))
					iv := live[i]
					tr.Add(iv.start, iv.end, -iv.bw)
					ref.add(iv.start, iv.end, -iv.bw)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				// Advance the window occasionally, dropping intervals that ended.
				if rng.Intn(8) == 0 {
					base += Epoch(rng.Intn(4))
					kept := live[:0]
					for _, iv := range live {
						if iv.end <= base {
							tr.Add(iv.start, iv.end, -iv.bw)
							ref.add(iv.start, iv.end, -iv.bw)
							continue
						}
						kept = append(kept, iv)
					}
					live = kept
				}
				qs := base + Epoch(rng.Intn(epochs))
				qe := qs + span()
				if got, want := tr.Max(qs, qe), ref.max(qs, qe); got != want {
					t.Fatalf("op %d: Max(%d,%d) = %d, want %d", op, qs, qe, got, want)
				}
				if got, want := tr.At(qs), ref.max(qs, qs+1); got != want {
					t.Fatalf("op %d: At(%d) = %d, want %d", op, qs, got, want)
				}
				if got, want := tr.MaxAll(), ref.max(0, Epoch(epochs)); got != want {
					t.Fatalf("op %d: MaxAll = %d, want %d", op, got, want)
				}
			}
			if wrapped < 100 || short < 100 {
				t.Fatalf("%d ring-wrapping and %d 1–5-epoch intervals, want at least 100 of each", wrapped, short)
			}
		})
	}
}

func TestTreeAddAll(t *testing.T) {
	tr := NewTree(16)
	tr.AddAll(100)
	tr.Add(3, 7, 50)
	if got := tr.MaxAll(); got != 150 {
		t.Fatalf("MaxAll = %d, want 150", got)
	}
	if got := tr.Max(8, 12); got != 100 {
		t.Fatalf("Max outside timed interval = %d, want 100", got)
	}
	if got := tr.At(4); got != 150 {
		t.Fatalf("At(4) = %d, want 150", got)
	}
	tr.AddAll(-100)
	tr.Add(3, 7, -50)
	if got := tr.MaxAll(); got != 0 {
		t.Fatalf("MaxAll after balanced removal = %d, want 0", got)
	}
}

func TestTreeWrapAround(t *testing.T) {
	tr := NewTree(8)
	// [14, 19) wraps: leaves 6,7,0,1,2.
	tr.Add(14, 19, 5)
	if got := tr.Max(14, 19); got != 5 {
		t.Fatalf("wrapped Max = %d, want 5", got)
	}
	if got := tr.At(16); got != 5 {
		t.Fatalf("At(16) = %d, want 5 (leaf 0)", got)
	}
	// Epoch 19..22 (leaves 3,4,5) are uncovered.
	if got := tr.Max(19, 22); got != 0 {
		t.Fatalf("Max over uncovered = %d, want 0", got)
	}
	tr.Add(14, 19, -5)
	if got := tr.MaxAll(); got != 0 {
		t.Fatalf("MaxAll after removal = %d, want 0", got)
	}
}

func TestTreeSnapshot(t *testing.T) {
	tr := NewTree(8)
	tr.Add(2, 5, 7)
	var epochs []Epoch
	var vals []int64
	tr.Snapshot(1, 6, func(e Epoch, d int64) {
		epochs = append(epochs, e)
		vals = append(vals, d)
	})
	wantE := []Epoch{1, 2, 3, 4, 5}
	wantV := []int64{0, 7, 7, 7, 0}
	for i := range wantE {
		if epochs[i] != wantE[i] || vals[i] != wantV[i] {
			t.Fatalf("snapshot[%d] = (%d,%d), want (%d,%d)", i, epochs[i], vals[i], wantE[i], wantV[i])
		}
	}
}

func TestTreePanicsOnBadInterval(t *testing.T) {
	tr := NewTree(8)
	for _, tc := range []struct {
		name       string
		start, end Epoch
	}{
		{"empty", 4, 4},
		{"inverted", 5, 3},
		{"too-long", 0, 9},
		{"negative", -1, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Add(%d,%d) did not panic", tc.name, tc.start, tc.end)
				}
			}()
			tr.Add(tc.start, tc.end, 1)
		}()
	}
}

// TestTreeZeroAlloc verifies the steady-state operations allocate nothing.
func TestTreeZeroAlloc(t *testing.T) {
	tr := NewTree(128)
	e := Epoch(1000)
	if n := testing.AllocsPerRun(100, func() {
		tr.Add(e, e+75, 500)
		_ = tr.Max(e, e+75)
		_ = tr.At(e + 10)
		tr.Add(e, e+75, -500)
		e += 3
	}); n != 0 {
		t.Fatalf("steady-state tree ops allocate %.1f/op, want 0", n)
	}
}
