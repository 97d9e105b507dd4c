package reservation

import (
	"errors"
	"testing"

	"colibri/internal/segment"
	"colibri/internal/topology"
)

func ia(isd topology.ISD, as topology.ASID) topology.IA { return topology.MustIA(isd, as) }

const now = uint32(1_700_000_000)

func newSegR(id ID, bw uint64) *SegR {
	return &SegR{
		ID:     id,
		In:     1,
		Eg:     2,
		Active: Version{Ver: 1, BwKbps: bw, ExpT: now + SegRLifetimeSeconds},
	}
}

func TestNextIDUnique(t *testing.T) {
	s := NewStore(ia(1, 1))
	seen := make(map[ID]bool)
	for i := 0; i < 100; i++ {
		id := s.NextID()
		if seen[id] {
			t.Fatalf("duplicate ID %s", id)
		}
		if id.SrcAS != ia(1, 1) {
			t.Fatalf("ID has wrong source AS %s", id.SrcAS)
		}
		seen[id] = true
	}
}

func TestSegRLifecycle(t *testing.T) {
	s := NewStore(ia(1, 1))
	id := s.NextID()
	r := newSegR(id, 1000)
	if err := s.AddSegR(r); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSegR(r); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate add: %v", err)
	}
	got, err := s.GetSegR(id)
	if err != nil || got.Active.BwKbps != 1000 {
		t.Fatalf("GetSegR: %v, %+v", err, got)
	}
	if err := s.ConfirmSegR(id, 800); err != nil {
		t.Fatal(err)
	}
	got, _ = s.GetSegR(id)
	if got.Active.BwKbps != 800 {
		t.Errorf("confirmed bw = %d", got.Active.BwKbps)
	}
	s.DeleteSegR(id)
	if _, err := s.GetSegR(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("after delete: %v", err)
	}
	if err := s.ConfirmSegR(id, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("confirm missing: %v", err)
	}
}

func TestPendingActivation(t *testing.T) {
	s := NewStore(ia(1, 1))
	id := s.NextID()
	if err := s.AddSegR(newSegR(id, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := s.ActivatePending(id); !errors.Is(err, ErrNoPending) {
		t.Errorf("activate without pending: %v", err)
	}
	if err := s.SetPending(id, Version{Ver: 2, BwKbps: 2000, ExpT: now + 600}); err != nil {
		t.Fatal(err)
	}
	if err := s.ActivatePending(id); err != nil {
		t.Fatal(err)
	}
	r, _ := s.GetSegR(id)
	if r.Active.Ver != 2 || r.Active.BwKbps != 2000 || r.Pending != nil {
		t.Errorf("after activation: %+v", r)
	}
}

func TestCleanupSegRs(t *testing.T) {
	s := NewStore(ia(1, 1))
	// Expired active, no pending → removed.
	id1 := s.NextID()
	r1 := newSegR(id1, 100)
	r1.Active.ExpT = now - 1
	_ = s.AddSegR(r1)
	// Expired active with live pending → failover to pending.
	id2 := s.NextID()
	r2 := newSegR(id2, 100)
	r2.Active.ExpT = now - 1
	r2.Pending = &Version{Ver: 2, BwKbps: 150, ExpT: now + 100}
	_ = s.AddSegR(r2)
	// Live active → kept.
	id3 := s.NextID()
	_ = s.AddSegR(newSegR(id3, 100))

	removed := s.Cleanup(now)
	if len(removed) != 1 || removed[0] != id1 {
		t.Errorf("removed = %v, want [%s]", removed, id1)
	}
	got, err := s.GetSegR(id2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Active.Ver != 2 || got.Pending != nil {
		t.Errorf("failover to pending did not happen: %+v", got)
	}
	if _, err := s.GetSegR(id3); err != nil {
		t.Error("live SegR removed")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestIDStringAndZero(t *testing.T) {
	var zero ID
	if !zero.IsZero() {
		t.Error("zero ID not zero")
	}
	id := ID{SrcAS: ia(1, 2), Num: 7}
	if id.IsZero() || id.String() != "1-2#7" {
		t.Errorf("ID = %s", id)
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
