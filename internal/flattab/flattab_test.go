package flattab

import (
	"encoding/binary"
	"math/bits"
	"testing"
	"unsafe"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// check compares the table with its map model: same size, every model key
// found with its value (read by val), every record reached by position is in
// the model once, every index slot names a live record — no record twice —
// whose tag bits it carries, and the index is at most ¾ full.
func check[V any](t *testing.T, tab *Table[V], model map[reservation.ID]uint64, val func(*V) uint64) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len %d, model %d", tab.Len(), len(model))
	}
	for id, want := range model {
		v := tab.Get(id)
		if v == nil || val(v) != want {
			t.Fatalf("Get(%v) = %v, want %d", id, v, want)
		}
	}
	seen := make(map[reservation.ID]bool, tab.Len())
	for i := 0; i < tab.Len(); i++ {
		id, v := tab.At(i)
		if want, ok := model[id]; !ok || val(v) != want || seen[id] {
			t.Fatalf("At(%d) = %v:%d, model has %d (present %v, seen before %v)", i, id, val(v), want, ok, seen[id])
		}
		seen[id] = true
	}
	low := tab.low()
	named, used := make([]bool, tab.Len()), 0
	for _, s := range tab.slots {
		if s == 0 {
			continue
		}
		pos := int(s&low) - 1
		if pos < 0 || pos >= tab.Len() || named[pos] || uint32(hash(tab.recs[pos].key()))&^low != s&^low {
			t.Fatalf("slot %#x names record %d of %d twice or with another tag", s, pos, tab.Len())
		}
		named[pos] = true
		used++
	}
	if used != tab.Len() || 4*used > 3*len(tab.slots) && used > 0 {
		t.Fatalf("%d slots used for %d records in an index of %d", used, tab.Len(), len(tab.slots))
	}
}

// rec28 has the shape of the CServ's EER record: 28 bytes of 4-byte
// alignment, which a record packs behind its key with no padding. A value is
// spread over its fields so that a record the table moves in part reads back
// as another value, and the zero record as 0.
type rec28 struct {
	lo, hi, mLo, mHi, x, y uint32
	z                      uint16
	odd                    bool
}

func to28(v uint64) rec28 {
	lo, hi := uint32(v), uint32(v>>32)
	return rec28{lo: lo, hi: hi, mLo: lo * 0x9E3779B1, mHi: hi * 7, x: lo ^ hi, y: lo * 3, z: uint16(lo >> 5), odd: lo&1 == 1}
}

func from28(r *rec28) uint64 {
	v := uint64(r.hi)<<32 | uint64(r.lo)
	if *r != to28(v) {
		return ^uint64(0)
	}
	return v
}

// FuzzTable runs a script of puts, gets, deletes and deleting walks over a
// few keys (so most operations hit) against a map model, on a table of 8-byte
// values and on one of 4-byte-aligned 28-byte values (rec28). Each op is 3
// bytes: the op, then a key: bit 15 picks one of two source ASes, bits 0–6
// the number.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 1, 0, 1, 3, 0})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 2, 1, 0, 2, 5, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		runScript(t, script, func(v *uint64, x uint64) { *v = x }, func(v *uint64) uint64 { return *v })
		runScript(t, script, func(v *rec28, x uint64) { *v = to28(x) }, from28)
	})
}

// runScript runs one FuzzTable script on a Table[V] whose values set writes
// and val reads.
func runScript[V any](t *testing.T, script []byte, set func(*V, uint64), val func(*V) uint64) {
	var tab Table[V]
	model := make(map[reservation.ID]uint64)
	for n := 0; n+3 <= len(script); n += 3 {
		op, k := script[n]%5, binary.LittleEndian.Uint16(script[n+1:])
		id := reservation.ID{SrcAS: topology.MustIA(1, topology.ASID(1+k>>15)), Num: uint32(k & 0x7f)}
		switch op {
		case 0, 1: // put, writing a fresh value through the returned pointer
			v, added := tab.Put(id)
			if _, had := model[id]; added == had || added && val(v) != 0 {
				t.Fatalf("Put(%v): added=%v, model had it: %v, value %d", id, added, had, val(v))
			}
			set(v, uint64(n)<<16|uint64(k))
			model[id] = val(v)
		case 2: // get
			v, want := tab.Get(id), model[id]
			if _, had := model[id]; had != (v != nil) || v != nil && val(v) != want {
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
				if val(v)&1 == uint64(k&1) {
					if !tab.Delete(rid) {
						t.Fatalf("walk: Delete(%v) at %d missed", rid, i)
					}
					delete(model, rid)
				}
			}
		}
	}
	check(t, &tab, model, val)
}

// TestRecordPacksSmallValues pins the record layout: the key costs 12 bytes,
// a 4-byte-aligned value packs into what a whole reservation.ID would pad, and
// an 8-aligned one pads to 8 as it did behind a whole ID.
func TestRecordPacksSmallValues(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"rec28", (*Table[rec28])(nil).RecordSize(), 40},
		{"uint32", (*Table[uint32])(nil).RecordSize(), 16},
		{"uint64", (*Table[uint64])(nil).RecordSize(), 24},
		{"[4]uint64", (*Table[[4]uint64])(nil).RecordSize(), 48},
	} {
		if c.got != c.want {
			t.Errorf("a record of %s takes %d bytes, want %d", c.name, c.got, c.want)
		}
	}
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
	check(t, &tab, model, func(v *uint64) uint64 { return *v })
	for i := 0; i < 5000; i++ {
		if i%7 != 0 {
			tab.Delete(id(i))
			delete(model, id(i))
		}
	}
	check(t, &tab, model, func(v *uint64) uint64 { return *v })
	for i := 5000; i < 6000; i++ {
		v, _ := tab.Put(id(i))
		*v = uint64(i)
		model[id(i)] = uint64(i)
	}
	check(t, &tab, model, func(v *uint64) uint64 { return *v })
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

// TestLargeTableAgreesWithModel fills a table with 2²⁰ keys, so that its index
// holds between 4/3 and 2 slots per key and a slot keeps at least 11 bits of
// tag, then deletes half of the keys one by one with Delete and the other
// half by deleting walks, checking every Get and At against the map model
// between the stages.
func TestLargeTableAgreesWithModel(t *testing.T) {
	const n = 1 << 20
	var tab Table[uint64]
	model := make(map[reservation.ID]uint64, n)
	val := func(v *uint64) uint64 { return *v }
	ias := []topology.IA{topology.MustIA(1, 11), topology.MustIA(2, 11), topology.MustIA(1, 12)}
	id := func(i int) reservation.ID { return reservation.ID{SrcAS: ias[i%3], Num: uint32(i / 3)} }
	for i := 0; i < n; i++ {
		v, _ := tab.Put(id(i))
		*v = uint64(i)
		model[id(i)] = uint64(i)
	}
	if 3*len(tab.slots) < 4*n || len(tab.slots) > 2*n || bits.LeadingZeros32(tab.low()) < 11 {
		t.Fatalf("an index of %d slots for %d records (%d tag bits), want %d to %d slots and at least 11 tag bits",
			len(tab.slots), n, bits.LeadingZeros32(tab.low()), (4*n+2)/3, 2*n)
	}
	check(t, &tab, model, val)
	for i := 0; i < n; i += 2 {
		if !tab.Delete(id(i)) {
			t.Fatalf("Delete(%v) missed", id(i))
		}
		delete(model, id(i))
	}
	check(t, &tab, model, val)
	// The odd keys left: the first walk deletes those ≡ 1 mod 4, the second
	// the rest.
	for _, rem := range []uint64{1, 3} {
		for i := tab.Len() - 1; i >= 0; i-- {
			rid, v := tab.At(i)
			if *v%4 == rem {
				if !tab.Delete(rid) {
					t.Fatalf("walk: Delete(%v) at %d missed", rid, i)
				}
				delete(model, rid)
			}
		}
		check(t, &tab, model, val)
	}
	if tab.Len() != 0 {
		t.Fatalf("%d records left", tab.Len())
	}
}

// TestIndexBytesPerRecord pins the index at 4-byte slots: once the index has
// grown past its first size, it costs at most 8 bytes per record at every
// size up to 2²⁰ records (at most two slots per record, since growth enlarges
// it by half at ¾ load).
func TestIndexBytesPerRecord(t *testing.T) {
	var tab Table[uint64]
	src := topology.MustIA(1, 11)
	for i := uint32(0); i < 1<<20; i++ {
		tab.Put(reservation.ID{SrcAS: src, Num: i})
		if len(tab.slots) == minSlots {
			continue
		}
		if bytes := uintptr(cap(tab.slots)) * unsafe.Sizeof(tab.slots[0]); bytes > 8*uintptr(tab.Len()) {
			t.Fatalf("%d records: an index of %d bytes, %.1f per record, want at most 8", tab.Len(), bytes, float64(bytes)/float64(tab.Len()))
		}
	}
}
