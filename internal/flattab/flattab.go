// Package flattab is the data plane's resident per-reservation store: one
// open-addressed table of fixed-size records keyed by reservation.ID, with
// no Go map and no heap object per entry.
//
// The records live in one dense array; an index of 8-byte slots sits in
// front of it. A slot packs the upper 32 bits of the key's hash (the tag)
// with the record's position in the dense array plus one (0 marks an empty
// slot). The index is a power of two, probed linearly from the slot the tag
// selects, and kept at most half full, so a miss ends within a few slots and
// a hit costs one index slot and one record. Because a slot's home follows
// from its tag alone, growth and deletion rearrange the index without
// reading a record.
//
// A record holds its key as the ID's two fields, source AS then number, with
// the value after them: a value of 4-byte alignment packs into the four bytes
// a whole reservation.ID would pad to 16, and an 8-aligned one costs what it
// did behind a whole ID.
//
// Deletion is tombstone-free: a backward shift closes the hole in the index,
// and the dense array's last record moves into the freed position. Iteration
// is by position in the dense array (At), so it is deterministic, and a walk
// from Len()-1 down to 0 may Delete the record it stands on.
package flattab

import (
	"unsafe"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// Table maps reservation IDs to records of type V. The zero value is an
// empty table ready for use. It is not safe for concurrent use.
//
// A pointer returned by Get, Put or At stays valid until the next Put or
// Delete on the table: growth moves the dense array, and a Delete moves the
// last record into the deleted one's place.
type Table[V any] struct {
	slots []uint64
	recs  []record[V]
}

type record[V any] struct {
	ia  topology.IA
	num uint32
	val V
}

func (r *record[V]) key() reservation.ID { return reservation.ID{SrcAS: r.ia, Num: r.num} }

// RecordSize returns the bytes one record of the table takes in its dense
// array: the key and a V, padded to V's alignment.
func (*Table[V]) RecordSize() uintptr { return unsafe.Sizeof(record[V]{}) }

// minSlots is the index size of a table's first insertion.
const minSlots = 8

// hash is the splitmix64 finalizer the sharded data plane places flows with,
// over both halves of the ID.
func hash(id reservation.ID) uint64 {
	x := uint64(id.SrcAS) ^ uint64(id.Num)<<32 + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// find returns the index slot holding id, or -1.
func (t *Table[V]) find(id reservation.ID) int {
	if len(t.recs) == 0 {
		return -1
	}
	tag := hash(id) >> 32
	mask := uint64(len(t.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if s>>32 == tag && t.recs[uint32(s)-1].key() == id {
			return int(i)
		}
	}
}

// Get returns id's record, or nil when the table holds none.
//
//colibri:nomalloc
func (t *Table[V]) Get(id reservation.ID) *V {
	i := t.find(id)
	if i < 0 {
		return nil
	}
	return &t.recs[uint32(t.slots[i])-1].val
}

// Put returns id's record, inserting a zero one first when the table holds
// none; added reports the insertion. Insertion allocates only when the
// table grows.
func (t *Table[V]) Put(id reservation.ID) (v *V, added bool) {
	if i := t.find(id); i >= 0 {
		return &t.recs[uint32(t.slots[i])-1].val, false
	}
	if 2*(len(t.recs)+1) > len(t.slots) {
		t.grow()
	}
	pos := len(t.recs)
	t.recs = append(t.recs, record[V]{ia: id.SrcAS, num: id.Num})
	t.place(hash(id)>>32<<32 | uint64(pos+1))
	return &t.recs[pos].val, true
}

// place files slot s at the first free slot from its home.
func (t *Table[V]) place(s uint64) {
	mask := uint64(len(t.slots) - 1)
	i := s >> 32 & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// grow doubles the index and refiles every slot by its tag.
func (t *Table[V]) grow() {
	old := t.slots
	n := 2 * len(old)
	if n < minSlots {
		n = minSlots
	}
	t.slots = make([]uint64, n)
	for _, s := range old {
		if s != 0 {
			t.place(s)
		}
	}
}

// Delete removes id's record and reports whether there was one.
func (t *Table[V]) Delete(id reservation.ID) bool {
	i := t.find(id)
	if i < 0 {
		return false
	}
	pos := uint32(t.slots[i]) - 1
	t.unslot(i)
	last := uint32(len(t.recs) - 1)
	if pos != last {
		// Swap-last compaction: re-point the last record's slot at pos.
		mask := uint64(len(t.slots) - 1)
		j := hash(t.recs[last].key()) >> 32 & mask
		for uint32(t.slots[j]) != last+1 {
			j = (j + 1) & mask
		}
		t.slots[j] = t.slots[j]>>32<<32 | uint64(pos+1)
		t.recs[pos] = t.recs[last]
	}
	t.recs[last] = record[V]{}
	t.recs = t.recs[:last]
	return true
}

// unslot empties index slot i by backward shift: each later slot of the
// probe run moves into the hole unless its home lies after the hole.
func (t *Table[V]) unslot(i int) {
	mask := uint64(len(t.slots) - 1)
	hole := uint64(i)
	for j := (hole + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		home := t.slots[j] >> 32 & mask
		if (j-home)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = 0
}

// Len returns the number of records.
func (t *Table[V]) Len() int { return len(t.recs) }

// At returns the key and record at position i of the dense array,
// 0 ≤ i < Len().
func (t *Table[V]) At(i int) (reservation.ID, *V) {
	r := &t.recs[i]
	return r.key(), &r.val
}
