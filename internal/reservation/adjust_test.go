package reservation

import (
	"errors"
	"testing"

	"colibri/internal/segment"
)

func TestRemoveEERVersion(t *testing.T) {
	s := NewStore(ia(1, 1))
	if s.Local() != ia(1, 1) {
		t.Fatal("Local() wrong")
	}
	sid := s.NextID()
	_ = s.AddSegR(newSegR(sid, 1000))
	eid := ID{SrcAS: ia(1, 9), Num: 1}
	admit := func(ver uint16, bw uint64) {
		t.Helper()
		if err := s.AdmitEERVersion(&EER{ID: eid}, []ID{sid},
			Version{Ver: ver, BwKbps: bw, ExpT: now + 16}, now); err != nil {
			t.Fatal(err)
		}
	}
	admit(1, 300)
	admit(2, 600)
	r, _ := s.GetSegR(sid)
	if r.AllocatedEERKbps != 600 {
		t.Fatalf("allocated = %d", r.AllocatedEERKbps)
	}
	// Removing the max version drops the charge to the remaining max.
	if err := s.RemoveEERVersion(eid, 2); err != nil {
		t.Fatal(err)
	}
	r, _ = s.GetSegR(sid)
	if r.AllocatedEERKbps != 300 {
		t.Errorf("allocated after remove = %d", r.AllocatedEERKbps)
	}
	// Removing an unknown version errors; removing the last one deletes the
	// EER and zeroes the charge.
	if err := s.RemoveEERVersion(eid, 9); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing version: %v", err)
	}
	if err := s.RemoveEERVersion(eid, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetEER(eid); !errors.Is(err, ErrNotFound) {
		t.Error("EER survived its last version")
	}
	r, _ = s.GetSegR(sid)
	if r.AllocatedEERKbps != 0 {
		t.Errorf("allocated after last removal = %d", r.AllocatedEERKbps)
	}
	if err := s.RemoveEERVersion(eid, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing EER: %v", err)
	}
}

func TestInitiatedSegRs(t *testing.T) {
	s := NewStore(ia(1, 1))
	a := s.NextID()
	local := newSegR(a, 100)
	local.Seg = &segment.Segment{Type: segment.Up, Hops: []segment.Hop{{IA: ia(1, 1)}}}
	_ = s.AddSegR(local)
	b := s.NextID()
	_ = s.AddSegR(newSegR(b, 100)) // transit view: no segment attached
	got := s.InitiatedSegRs()
	if len(got) != 1 || got[0].ID != a {
		t.Errorf("InitiatedSegRs = %v", got)
	}
}
