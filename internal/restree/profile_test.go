package restree

import (
	"fmt"
	"math/rand"
	"testing"
)

// The keyless profile keeps no record of what it was charged with, so nothing
// inside it can notice a slot that went wrong: it is held instead to a model
// that is nothing but bookkeeping — the list of charges the caller still
// holds, summed per epoch by brute force.

// modelCharge is one charge the model's caller holds: what it would hand back
// to Discharge.
type modelCharge struct {
	startT, expT uint32
	bw           int64
}

// profileModel is the oracle: the outstanding charges, the floor, and the
// acceptance rule of Charge spelled out on epochs.
type profileModel struct {
	n, sec int64
	floor  int64 // -1 until anchored
	held   []modelCharge
}

func (m *profileModel) first(c modelCharge) int64 { return int64(c.startT) / m.sec }
func (m *profileModel) end(c modelCharge) int64   { return (int64(c.expT) + m.sec - 1) / m.sec }

// accepts mirrors the documented rule: a window is refused when nothing of it
// lies at or ahead of the floor, when it is longer than the ring, or when it
// ends past the ring.
func (m *profileModel) accepts(c modelCharge) bool {
	floor := m.floor
	if floor < 0 {
		floor = m.first(c)
	}
	first, end := m.first(c), m.end(c)
	return end > max(first, floor) && end-first <= m.n && end <= floor+m.n
}

// ring is the demand at every epoch of [floor, floor+n): each held charge
// added over the epochs it covers.
func (m *profileModel) ring() []int64 {
	d := make([]int64, m.n)
	for _, c := range m.held {
		for e := max(m.first(c), m.floor); e < min(m.end(c), m.floor+m.n); e++ {
			d[e-m.floor] += c.bw
		}
	}
	return d
}

// live counts the held charges that have not lapsed.
func (m *profileModel) live() (n int) {
	for _, c := range m.held {
		if m.end(c) > m.floor {
			n++
		}
	}
	return n
}

// modelRings are the ring sizes a stream's first byte picks from: the smallest
// rings, where every window reaches round the ring, two between, and 64 and
// 128 epochs, the CServ's ledger and half of it.
var modelRings = [...]int{2, 4, 8, 16, 64, 128}

// modelStats counts the accepted charges of a stream that test what the ring
// must get right: short ones (an EER's 1–5 epochs) and ones whose slots wrap
// round the end of the ring.
type modelStats struct{ short, wrapped int }

// runProfileModel interprets ops, four bytes an operation, against a profile
// and the model, and compares them after every one: each epoch of the ring,
// Len, and MaxDemand over the whole ring and beyond both ends of it. The low
// three bits of an operation's first byte pick what it does, the next two a
// variant of it; variant 0 is each operation's original form, so a stream
// written before the variants means what it meant.
func runProfileModel(t *testing.T, ops []byte) (st modelStats) {
	if len(ops) < 2 {
		return st
	}
	epochs := modelRings[int(ops[0])%len(modelRings)]
	sec := uint32(1 + 3*(ops[1]%2)) // 1 or 4
	p := NewProfile(epochs, sec)
	m := &profileModel{n: int64(epochs), sec: int64(sec), floor: -1}
	horizon := uint32(epochs) * sec
	now := uint32(1000)
	charge := func(c modelCharge) {
		want := m.accepts(c)
		if err := p.Charge(c.startT, c.expT, c.bw); (err == nil) != want {
			t.Fatalf("Charge(%d,%d) at floor %d: err=%v, model accepts=%v", c.startT, c.expT, m.floor, err, want)
		} else if err != nil && err != ErrWindow {
			t.Fatalf("Charge error %v, want ErrWindow", err)
		}
		if want {
			if m.floor < 0 {
				m.floor = m.first(c)
			}
			m.held = append(m.held, c)
			first, end := m.first(c), m.end(c)
			if end-first <= 5 {
				st.short++
			}
			if start := max(first, m.floor); start%m.n+end-start > m.n {
				st.wrapped++
			}
		}
	}
	advance := func() {
		cur := int64(now) / m.sec
		wantLapsed := 0
		if cur > m.floor {
			if m.floor >= 0 {
				before := m.live()
				m.floor = cur
				wantLapsed = before - m.live()
			}
			m.floor = cur
		}
		if got := p.Advance(now); got != wantLapsed {
			t.Fatalf("Advance(%d) lapsed %d, model %d", now, got, wantLapsed)
		}
	}
	for ops = ops[2:]; len(ops) >= 4; ops = ops[4:] {
		a, b, c := uint32(ops[1]), uint32(ops[2]), int64(ops[3])
		switch op, variant := ops[0]%8, ops[0]>>3%4; op {
		case 0: // a charge from now
			switch variant {
			case 1: // an EER's window: 1–5 epochs
				charge(modelCharge{now, now + sec*(1+b%5), 1 + c})
			case 2: // any window up to a whole ring and an epoch
				charge(modelCharge{now, now + 1 + (a<<8|b)%(horizon+sec), 1 + c})
			default:
				charge(modelCharge{now, now + 1 + b%(horizon+sec), 1 + c})
			}
		case 1: // a window bought ahead, up to and past the end of the ring
			if variant == 1 {
				// Ending exactly with the ring, or one epoch past it.
				floor := m.floor
				if floor < 0 {
					floor = int64(now / sec)
				}
				exp := uint32(floor+m.n+int64(b%2)) * sec
				charge(modelCharge{exp - sec*(1+a%uint32(epochs)), exp, 1 + c})
				break
			}
			start := now + a%(horizon+2*sec)
			charge(modelCharge{start, start + 1 + b%(horizon/2+1), 1 + c})
		case 2: // a start in the past: only what lies ahead of the floor counts
			start := now - min(now, a%(2*horizon))
			charge(modelCharge{start, start + 1 + b%(2*horizon), 1 + c})
		case 3: // hand a held charge back, lapsed or not
			if len(m.held) > 0 {
				i := int(a) % len(m.held)
				h := m.held[i]
				if variant == 1 && m.first(h) <= m.floor {
					// The floor has reached its start: from the floor, unnamed.
					p.DischargeFromFloor(h.expT, h.bw)
				} else {
					p.Discharge(h.startT, h.expT, h.bw)
				}
				m.held = append(m.held[:i], m.held[i+1:]...)
			}
		case 4: // time passes
			if variant == 1 {
				// One epoch short of the ring, the ring, one epoch past it.
				now += horizon - sec + a%3*sec
			} else {
				now += a % (2 * sec)
			}
			advance()
		case 5: // the clock steps back: the floor does not
			now -= min(now, a%(horizon/2+1))
			advance()
		case 6: // a jump of a whole horizon or more
			now += horizon + a%horizon
			advance()
		case 7: // an empty query window reads its one epoch
			if got, want := p.MaxDemand(now, now), p.DemandAt(now); got != want {
				t.Fatalf("MaxDemand(now,now) = %d, DemandAt(now) = %d", got, want)
			}
		}
		if m.floor < 0 {
			if p.Len() != 0 || p.MaxDemand(0, now+horizon) != 0 {
				t.Fatal("an unanchored profile carries demand")
			}
			continue
		}
		var peak int64
		for i, want := range m.ring() {
			e := m.floor + int64(i)
			peak = max(peak, want)
			if got := p.DemandAt(uint32(e * m.sec)); got != want {
				t.Fatalf("epoch %d (floor %d): demand %d, model %d", e, m.floor, got, want)
			}
		}
		lo, hi := uint32(m.floor*m.sec), uint32((m.floor+m.n)*m.sec)
		if got := p.MaxDemand(lo-min(lo, horizon), hi+horizon); got != peak {
			t.Fatalf("MaxDemand over and beyond the ring = %d, model %d", got, peak)
		}
		if lo > 0 && p.DemandAt(lo-1) != 0 || p.DemandAt(hi) != 0 {
			t.Fatal("demand reported outside the ring")
		}
		if got, want := p.Len(), m.live(); got != want {
			t.Fatalf("Len = %d, model %d", got, want)
		}
	}
	return st
}

// TestProfileModel runs seeded random operation streams through the model,
// fifty on each ring size, and demands of every ring at least a hundred short
// windows and a hundred that wrap round its end.
func TestProfileModel(t *testing.T) {
	for r, epochs := range modelRings {
		t.Run(fmt.Sprint("ring", epochs), func(t *testing.T) {
			var total modelStats
			for seed := int64(1); seed <= 50; seed++ {
				rng := rand.New(rand.NewSource(int64(r)<<16 + seed))
				ops := make([]byte, 2+4*400)
				rng.Read(ops)
				ops[0] = byte(r)
				st := runProfileModel(t, ops)
				total.short += st.short
				total.wrapped += st.wrapped
			}
			if total.short < 100 || total.wrapped < 100 {
				t.Fatalf("%d short and %d ring-wrapping charges, want at least 100 of each", total.short, total.wrapped)
			}
		})
	}
}

// FuzzProfileModel lets the fuzzer write the operation stream. The committed
// seeds are one stream per hazard: lapse by Advance alone, a backward clock, a
// jump past the horizon with charges held across it, and future starts around
// the end of the ring; then, on the CServ's 128-epoch ring, EER windows
// wrapping its end, windows ending with the ring and one epoch past it, clock
// jumps of n−1, n and n+1 epochs, and windows of up to the whole ring; and
// charges handed back from the floor once it has reached their start, made
// from now, from behind a floor the clock stepped back from, and from the
// past.
func FuzzProfileModel(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 15, 9, 4, 7, 0, 0, 4, 7, 0, 0, 4, 7, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 0, 30, 5, 4, 9, 0, 0, 5, 12, 0, 0, 0, 0, 30, 2, 3, 1, 0, 0, 4, 5, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 3, 1, 1, 2, 2, 1, 6, 1, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 0, 0, 2, 1})
	f.Add([]byte{2, 1, 4, 0, 0, 0, 1, 32, 3, 7, 1, 28, 3, 7, 1, 36, 3, 7, 4, 7, 0, 0, 3, 1, 0, 0})
	f.Add([]byte{5, 1, 4, 7, 0, 0, 4, 7, 0, 0, 8, 0, 4, 9, 8, 0, 2, 5, 3, 0, 0, 0, 12, 1, 0, 0, 8, 0, 4, 5})
	f.Add([]byte{5, 0, 4, 0, 0, 0, 9, 7, 0, 3, 9, 7, 1, 3, 9, 200, 0, 3, 3, 0, 0, 0, 9, 0, 1, 3})
	f.Add([]byte{5, 1, 16, 1, 255, 4, 8, 0, 3, 2, 12, 0, 0, 0, 8, 0, 3, 2, 12, 1, 0, 0, 8, 0, 3, 2, 12, 2, 0, 0, 8, 0, 3, 2, 6, 0, 0, 0})
	f.Add([]byte{5, 1, 16, 1, 255, 4, 16, 1, 254, 4, 12, 1, 0, 0, 16, 2, 3, 4, 16, 0, 200, 4, 6, 100, 0, 0, 16, 1, 255, 4})
	f.Add([]byte{2, 1, 8, 0, 3, 2, 4, 5, 0, 0, 0, 0, 20, 4, 5, 7, 0, 0, 8, 0, 2, 1, 2, 9, 20, 6, 4, 3, 0, 0, 11, 1, 0, 0, 11, 0, 0, 0, 11, 0, 0, 0, 11, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { runProfileModel(t, ops) })
}

// TestDischargeFromFloorEqualsDischarge: once a profile's floor has reached a
// charge's start, withdrawing the charge from the floor takes out what
// withdrawing it from its start does. Two profiles go through the same
// charges — from now, from ahead of now and, under a clock that steps back,
// from behind the floor — and advances; each charge the floor has reached is
// then handed back to one profile by its start and to the other from the
// floor, and the two must agree at every epoch of the ring and in their count
// of live charges after every step.
func TestDischargeFromFloorEqualsDischarge(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const epochs, sec = 16, 4
		byStart, fromFloor := NewProfile(epochs, sec), NewProfile(epochs, sec)
		type charge struct{ startT, expT uint32 }
		var held []charge
		now, reached := uint32(1000), 0
		for step := 0; step < 400; step++ {
			switch k := rng.Intn(6); {
			case k < 2:
				c := charge{now, now + 1 + uint32(rng.Intn(40))}
				if rng.Intn(4) == 0 {
					c.startT += uint32(rng.Intn(8))
				}
				err := byStart.Charge(c.startT, c.expT, 7)
				if err2 := fromFloor.Charge(c.startT, c.expT, 7); (err == nil) != (err2 == nil) {
					t.Fatalf("seed %d step %d: the two profiles disagree on a charge", seed, step)
				}
				if err == nil {
					held = append(held, c)
				}
			case k == 2:
				now += uint32(rng.Intn(12))
				byStart.Advance(now)
				fromFloor.Advance(now)
			case k == 3:
				now -= uint32(rng.Intn(10))
			default:
				for i, c := range held {
					if byStart.EpochOf(c.startT) > byStart.Floor() {
						continue
					}
					byStart.Discharge(c.startT, c.expT, 7)
					fromFloor.DischargeFromFloor(c.expT, 7)
					held = append(held[:i], held[i+1:]...)
					reached++
					break
				}
			}
			if byStart.Len() != fromFloor.Len() || byStart.Floor() != fromFloor.Floor() {
				t.Fatalf("seed %d step %d: %d and %d live charges", seed, step, byStart.Len(), fromFloor.Len())
			}
			for e := byStart.Floor(); e < byStart.Floor()+epochs; e++ {
				if a, b := byStart.DemandAt(uint32(e)*sec), fromFloor.DemandAt(uint32(e)*sec); a != b {
					t.Fatalf("seed %d step %d: epoch %d: %d by start, %d from the floor", seed, step, e, a, b)
				}
			}
		}
		if reached == 0 {
			t.Fatalf("seed %d: no charge was handed back", seed)
		}
	}
}
