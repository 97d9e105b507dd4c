// Package flattab is the data plane's resident per-reservation store: one
// open-addressed table of fixed-size records keyed by reservation.ID, with
// no Go map and no heap object per entry.
//
// The records live in one dense array; an index of 4-byte slots sits in
// front of it. The index has 2^b slots, a power of two kept at most half full,
// so the dense array never holds 2^b records: a slot's low b bits are the
// record's position in it plus one (0 marks an empty slot), and its upper
// 32−b bits are the same bits of the lower half of the key's hash (the tag).
// The upper half selects the slot a probe starts from (its home), and
// probing is linear, so a miss ends within a few slots and a hit costs one
// run of slots and, on a tag match, one record. A slot's home does not follow
// from the slot: growth refiles the index by walking the dense array, and a
// deletion finds the homes of the slots it shifts by hashing their records'
// keys, so only those two pay a record read per slot.
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
	slots []uint32
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
//
//colibri:allow(testonly) — the layout pins of cserv (TestEERRecordIs40Bytes), gateway (TestRecordBytesPinned) and monitor (TestWatchRecordBytesPinned) read it
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

// mask returns the index's position mask, 2^b − 1.
func (t *Table[V]) mask() uint32 { return uint32(len(t.slots) - 1) }

// slotOf returns the slot of the record at pos whose key hashes to h, in an
// index of the given mask, and the slot's home.
func slotOf(h uint64, pos int, mask uint32) (s, home uint32) {
	return uint32(h)&^mask | uint32(pos+1), uint32(h>>32) & mask
}

// homeOf returns the home of id's slot.
func (t *Table[V]) homeOf(id reservation.ID) uint32 { return uint32(hash(id)>>32) & t.mask() }

// find returns the index slot holding id, or -1.
func (t *Table[V]) find(id reservation.ID) int {
	if len(t.recs) == 0 {
		return -1
	}
	h, mask := hash(id), t.mask()
	tag := uint32(h) &^ mask
	for i := uint32(h>>32) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if s&^mask == tag && t.recs[s&mask-1].key() == id {
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
	return &t.recs[t.slots[i]&t.mask()-1].val
}

// Put returns id's record, inserting a zero one first when the table holds
// none; added reports the insertion. Insertion allocates only when the
// table grows.
func (t *Table[V]) Put(id reservation.ID) (v *V, added bool) {
	if i := t.find(id); i >= 0 {
		return &t.recs[t.slots[i]&t.mask()-1].val, false
	}
	if 2*(len(t.recs)+1) > len(t.slots) {
		t.grow()
	}
	pos := len(t.recs)
	t.recs = append(t.recs, record[V]{ia: id.SrcAS, num: id.Num})
	t.place(slotOf(hash(id), pos, t.mask()))
	return &t.recs[pos].val, true
}

// place files slot s at the first free slot from its home.
func (t *Table[V]) place(s, home uint32) {
	mask := t.mask()
	i := home
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// grow doubles the index and refiles every record into it, in dense order.
func (t *Table[V]) grow() {
	n := 2 * len(t.slots)
	if n < minSlots {
		n = minSlots
	}
	t.slots = make([]uint32, n)
	mask := t.mask()
	for pos := range t.recs {
		t.place(slotOf(hash(t.recs[pos].key()), pos, mask))
	}
}

// Delete removes id's record and reports whether there was one.
func (t *Table[V]) Delete(id reservation.ID) bool {
	i := t.find(id)
	if i < 0 {
		return false
	}
	mask := t.mask()
	pos := t.slots[i]&mask - 1
	t.unslot(uint32(i))
	last := uint32(len(t.recs) - 1)
	if pos != last {
		// Swap-last compaction: re-point the last record's slot at pos.
		j := t.homeOf(t.recs[last].key())
		for t.slots[j]&mask != last+1 {
			j = (j + 1) & mask
		}
		t.slots[j] = t.slots[j]&^mask | (pos + 1)
		t.recs[pos] = t.recs[last]
	}
	t.recs[last] = record[V]{}
	t.recs = t.recs[:last]
	return true
}

// unslot empties index slot i by backward shift: each later slot of the
// probe run moves into the hole unless its home lies after the hole.
func (t *Table[V]) unslot(i uint32) {
	mask := t.mask()
	hole := i
	for j := (hole + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		home := t.homeOf(t.recs[t.slots[j]&mask-1].key())
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
