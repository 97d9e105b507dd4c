package restree

import (
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

// at is the demand at epoch e: every held charge covering it.
func (m *profileModel) at(e int64) (d int64) {
	for _, c := range m.held {
		if m.first(c) <= e && e < m.end(c) {
			d += c.bw
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

// runProfileModel interprets ops, four bytes an operation, against a profile
// and the model, and compares them after every one: each epoch of the ring,
// Len, and MaxDemand over the whole ring and beyond both ends of it.
func runProfileModel(t *testing.T, ops []byte) {
	if len(ops) < 2 {
		return
	}
	epochs := 2 << (ops[0] % 4)     // 2, 4, 8, 16
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
		switch ops[0] % 8 {
		case 0: // a charge from now
			charge(modelCharge{now, now + 1 + b%(horizon+sec), 1 + c})
		case 1: // a window bought ahead, up to and past the end of the ring
			start := now + a%(horizon+2*sec)
			charge(modelCharge{start, start + 1 + b%(horizon/2+1), 1 + c})
		case 2: // a start in the past: only what lies ahead of the floor counts
			start := now - min(now, a%(2*horizon))
			charge(modelCharge{start, start + 1 + b%(2*horizon), 1 + c})
		case 3: // hand a held charge back, lapsed or not
			if len(m.held) > 0 {
				i := int(a) % len(m.held)
				h := m.held[i]
				p.Discharge(h.startT, h.expT, h.bw)
				m.held = append(m.held[:i], m.held[i+1:]...)
			}
		case 4: // time passes
			now += a % (2 * sec)
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
		for e := m.floor; e < m.floor+m.n; e++ {
			want := m.at(e)
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
}

// TestProfileModel runs seeded random operation streams through the model.
func TestProfileModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2+4*400)
		rng.Read(ops)
		runProfileModel(t, ops)
	}
}

// FuzzProfileModel lets the fuzzer write the operation stream. The committed
// seeds are one stream per hazard: lapse by Advance alone, a backward clock, a
// jump past the horizon with charges held across it, and future starts around
// the end of the ring.
func FuzzProfileModel(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 15, 9, 4, 7, 0, 0, 4, 7, 0, 0, 4, 7, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 0, 30, 5, 4, 9, 0, 0, 5, 12, 0, 0, 0, 0, 30, 2, 3, 1, 0, 0, 4, 5, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 3, 1, 1, 2, 2, 1, 6, 1, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 0, 0, 2, 1})
	f.Add([]byte{2, 1, 4, 0, 0, 0, 1, 32, 3, 7, 1, 28, 3, 7, 1, 36, 3, 7, 4, 7, 0, 0, 3, 1, 0, 0})
	f.Fuzz(runProfileModel)
}
