package replay

import (
	"math"
	"testing"
)

// FuzzSuppressor runs a byte script of load swings, silences, clock steps
// (either way), future- and past-skewed timestamps and byte-exact copies
// carrying their original's Ts against an exact oracle of what was accepted
// and of the latest clock reading. It checks the contract the router relies
// on: no copy is accepted — while its Ts is within ±F of now the filter has
// to find it — no Ts outside ±F is accepted, and resident bytes stay under
// CeilingBytes. It also checks where the buffers are: once a Check opens a
// bucket, no slot whose bucket lies wholly below now − F holds one, and
// every buffer is owned once, by a live chain or a free list.
func FuzzSuppressor(f *testing.F) {
	f.Add([]byte{0, 6, 7, 7, 7, 7, 7, 7, 7, 7, 4, 9, 4, 200, 1, 30, 7, 7, 4, 3})
	f.Add([]byte{0, 0, 7, 7, 0, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 0, 0, 7, 7, 4, 255, 2, 10, 4, 0})
	f.Add([]byte{3, 250, 3, 5, 4, 100, 2, 200, 7, 7, 2, 3, 4, 60, 1, 255, 4, 255})
	// A silence longer than 2F frees every buffer; a ×64 swing then empties
	// the free lists and allocates, and the swing back refills them.
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 1, 40, 7, 7, 0, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 0, 0, 7, 7, 7, 7, 7, 7, 7, 7, 4, 9})
	f.Add([]byte{0, 6, 7, 7, 7, 7, 7, 7, 3, 200, 3, 40, 1, 60, 0, 0, 7, 7, 7, 7, 1, 25, 0, 6, 7, 7, 7, 7, 7, 7, 4, 1, 1, 255, 7, 7})
	const (
		window  = 1000
		horizon = 2300 // W does not divide 2F: the ring is ⌊2F/W⌋ + 2
		step    = window / 16
	)
	cfg := Config{WindowNs: window, ExpectedPackets: 1 << 14}
	ceiling := cfg.CeilingBytes(horizon)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			script = script[:1024]
		}
		s := NewCovering(cfg, horizon)
		type rec struct{ id, ts int64 }
		var accepted []rec
		now, latest, rate, next := int64(0), int64(math.MinInt64), 1, int64(0)
		// arg takes the op's argument byte (0 when the script has run out).
		arg := func(i *int) int {
			if *i+1 >= len(script) {
				return 0
			}
			*i++
			return int(script[*i])
		}
		check := func(id, ts int64) {
			latest = max(latest, now)
			n := int64(len(s.ring))
			sl := &s.ring[(s.bucket(ts)%n+n)%n]
			was := sl.bucket
			ok := s.Check(uint64(id), ts, now)
			if ok && (ts < latest-horizon || ts > latest+horizon) {
				t.Fatalf("Ts %d accepted at %d (latest reading %d), outside ±%d", ts, now, latest, horizon)
			}
			if ok {
				accepted = append(accepted, rec{id, ts})
			}
			if sl.bucket != was {
				if dead := deadHolders(s); dead != nil {
					t.Fatalf("bucket %d opened at %d: slots %v still hold buffers of buckets below now − F", sl.bucket, latest, dead)
				}
			}
		}
		for i := 0; i < len(script); i++ {
			switch op := script[i] % 8; op {
			case 0: // load swing: ×1 … ×64
				rate = 1 << (arg(&i) % 7)
			case 1: // silence of up to 64 bucket widths
				now += int64(arg(&i)) * window / 4
			case 2: // clock step, either way
				now += int64(arg(&i)-128) * window / 8
			case 3: // a burst stamped up to F + W either side of now
				skew := int64(arg(&i))*2*(horizon+window)/255 - horizon - window
				for j := 0; j < rate; j++ {
					next++
					check(next, now+skew+int64(j))
				}
			case 4: // copies of recent accepts, with their original Ts
				a := arg(&i)
				for j := 0; j < rate && len(accepted) > 0; j++ {
					c := accepted[len(accepted)-1-(a*31+j*7)%min(len(accepted), 512)]
					latest = max(latest, now)
					if s.Check(uint64(c.id), c.ts, now) {
						t.Fatalf("copy stamped %d accepted at %d (latest reading %d, F %d)", c.ts, now, latest, horizon)
					}
				}
			default: // a step of the clock and rate fresh packets stamped now
				now += step
				for j := 0; j < rate; j++ {
					next++
					check(next, now)
				}
			}
			if s.resident > ceiling {
				t.Fatalf("resident %d B above the ceiling %d B", s.resident, ceiling)
			}
			if err := checkBuffers(s); err != nil {
				t.Fatal(err)
			}
		}
	})
}
