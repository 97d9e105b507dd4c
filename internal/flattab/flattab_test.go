package flattab

import (
	"encoding/binary"
	"testing"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// check compares the table with its map model: same size, every model key
// found with its value, every record reached by position is in the model
// once, and every index slot points at a live record whose tag it carries.
func check(t *testing.T, tab *Table[uint64], model map[reservation.ID]uint64) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len %d, model %d", tab.Len(), len(model))
	}
	for id, want := range model {
		v := tab.Get(id)
		if v == nil || *v != want {
			t.Fatalf("Get(%v) = %v, want %d", id, v, want)
		}
	}
	seen := make(map[reservation.ID]bool, tab.Len())
	for i := 0; i < tab.Len(); i++ {
		id, v := tab.At(i)
		if want, ok := model[id]; !ok || *v != want || seen[id] {
			t.Fatalf("At(%d) = %v:%d, model has %d (present %v, seen before %v)", i, id, *v, want, ok, seen[id])
		}
		seen[id] = true
	}
	used := 0
	for _, s := range tab.slots {
		if s == 0 {
			continue
		}
		used++
		pos := int(uint32(s)) - 1
		if pos < 0 || pos >= tab.Len() || hash(tab.recs[pos].key)>>32 != s>>32 {
			t.Fatalf("slot %#x names record %d of %d with another tag", s, pos, tab.Len())
		}
	}
	if used != tab.Len() || 2*used > len(tab.slots) && used > 0 {
		t.Fatalf("%d slots used for %d records in an index of %d", used, tab.Len(), len(tab.slots))
	}
}

// FuzzTable runs a script of puts, gets, deletes and deleting walks over a
// few keys (so most operations hit) against a map model. Each op is 3 bytes:
// the op, then a key: bit 15 picks one of two source ASes, bits 0–6 the
// number.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 1, 0, 1, 3, 0})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 2, 1, 0, 2, 5, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		var tab Table[uint64]
		model := make(map[reservation.ID]uint64)
		for n := 0; n+3 <= len(script); n += 3 {
			op, k := script[n]%5, binary.LittleEndian.Uint16(script[n+1:])
			id := reservation.ID{SrcAS: topology.MustIA(1, topology.ASID(1+k>>15)), Num: uint32(k & 0x7f)}
			switch op {
			case 0, 1: // put, writing a fresh value through the returned pointer
				v, added := tab.Put(id)
				if _, had := model[id]; added == had || added && *v != 0 {
					t.Fatalf("Put(%v): added=%v, model had it: %v, value %d", id, added, had, *v)
				}
				*v = uint64(n)<<16 | uint64(k)
				model[id] = *v
			case 2: // get
				v, want := tab.Get(id), model[id]
				if _, had := model[id]; had != (v != nil) || v != nil && *v != want {
					t.Fatalf("Get(%v) = %v, model %d (present %v)", id, v, want, had)
				}
			case 3: // delete
				_, had := model[id]
				if got := tab.Delete(id); got != had {
					t.Fatalf("Delete(%v) = %v, model had it: %v", id, got, had)
				}
				delete(model, id)
			case 4: // a backward walk deleting every record whose value shares k's parity
				for i := tab.Len() - 1; i >= 0; i-- {
					rid, v := tab.At(i)
					if *v&1 == uint64(k&1) {
						if !tab.Delete(rid) {
							t.Fatalf("walk: Delete(%v) at %d missed", rid, i)
						}
						delete(model, rid)
					}
				}
			}
		}
		check(t, &tab, model)
	})
}

// TestTableGrowAndShrink fills past several growths, deletes all but a
// strided remnant, and refills: the index and the dense array must stay
// consistent with the model throughout.
func TestTableGrowAndShrink(t *testing.T) {
	var tab Table[uint64]
	model := make(map[reservation.ID]uint64)
	ias := []topology.IA{topology.MustIA(1, 11), topology.MustIA(2, 11)}
	id := func(i int) reservation.ID { return reservation.ID{SrcAS: ias[i%2], Num: uint32(i / 2)} }
	for i := 0; i < 5000; i++ {
		v, _ := tab.Put(id(i))
		*v = uint64(i)
		model[id(i)] = uint64(i)
	}
	check(t, &tab, model)
	for i := 0; i < 5000; i++ {
		if i%7 != 0 {
			tab.Delete(id(i))
			delete(model, id(i))
		}
	}
	check(t, &tab, model)
	for i := 5000; i < 6000; i++ {
		v, _ := tab.Put(id(i))
		*v = uint64(i)
		model[id(i)] = uint64(i)
	}
	check(t, &tab, model)
}

// TestTableGetDoesNotAllocate pins Get's //colibri:nomalloc at runtime, for
// hits and misses.
func TestTableGetDoesNotAllocate(t *testing.T) {
	var tab Table[[4]uint64]
	src := topology.MustIA(1, 11)
	for i := uint32(0); i < 1000; i++ {
		tab.Put(reservation.ID{SrcAS: src, Num: i})
	}
	n := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		n++
		if tab.Get(reservation.ID{SrcAS: src, Num: n % 2000}) == nil && n%2000 < 1000 {
			t.Fatalf("record %d missing", n%2000)
		}
	})
	if allocs != 0 {
		t.Errorf("Get allocates %.1f times per call", allocs)
	}
}
