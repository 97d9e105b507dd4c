// Package flattab is the data plane's resident per-reservation store: one
// open-addressed table of fixed-size records keyed by reservation.ID, with
// no Go map and no heap object per entry.
//
// The records live in a dense array held in fixed pages of pageLen (512)
// records: position pos is page pos>>pageShift, offset pos&(pageLen−1), one
// load more than a flat array and no bounds check on the offset. A table's
// first page starts at 16 records and doubles up to a whole page, so a small
// table pays for no more than its records' next power of two. From then on
// the table is a list of whole pages: Put adds one when the last is full and
// copies nothing, so fewer than a page of records is spare; Delete frees the
// last page once it and the page before it are empty, so after deletions
// fewer than two are. A table drained after a flood keeps its live records
// plus at most two pages, not its peak.
//
// An index of 4-byte slots sits in front of the dense array. The index has
// n ≥ 8 slots, any n, kept at most ¾ full and grown by half when an insert
// would fill it past that, so after its first growth it runs at more than
// ½ load and costs at most 8 bytes per record. The dense array never holds n
// records, so with b = bits.Len(n) a slot's low b bits are the record's
// position in it plus one (0 marks an empty slot), and its upper 32−b bits
// are the same bits of the lower half of the key's hash (the tag). The upper
// half, scaled to n by a multiply-shift, selects the slot a probe starts from
// (its home), and probing is linear, wrapping at n, so a miss ends within a
// few slots and a hit costs one run of slots and, on a tag match, one
// record. A slot's home does not follow from the slot: growth refiles the
// index by walking the pages, and a deletion finds the homes of the slots it
// shifts by hashing their records' keys, so only those two pay a record read
// per slot.
//
// A record holds its key in 8 bytes, the value after them: the number, and
// the source AS as a 4-byte index into the table's source list, which holds
// each distinct source AS of the keys the table has held once. A table's keys
// share a few sources (a CServ's EERs name the ASes its hosts' requests come
// from, a gateway's only its own AS), so the list stays short; it is never
// shrunk, which keeps every record's index valid without a reference count. A
// value of 4- or 8-byte alignment packs right behind the key. Lookup compares
// the number, then the listed source (a load from a list that stays in cache);
// only an insertion maps an AS to its index, and one naming the source the
// last did finds it without a search.
//
// Deletion is tombstone-free: a backward shift closes the hole in the index,
// and the dense array's last record moves into the freed position. Iteration
// is by position in the dense array (At), so it is deterministic, and a walk
// from Len()-1 down to 0 may Delete the record it stands on.
package flattab

import (
	"math/bits"
	"unsafe"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// Table maps reservation IDs to records of type V. The zero value is an
// empty table ready for use. It is not safe for concurrent use.
//
// A pointer returned by Get, Put or At stays valid until the next Put or
// Delete on the table: a doubling first page moves, a Delete moves the last
// record into the deleted one's place, and it may free the last page.
type Table[V any] struct {
	slots []uint32
	// first holds the records while the table has one page, which doubles
	// from firstLen to pageLen records; pages holds them once the table has
	// outgrown it, first becoming pages[0].
	first []record[V]
	pages []*[pageLen]record[V]
	// srcs is the source list, in the order first seen, and lastSrc the
	// index the last insertion named. srcIdx indexes the list: open-addressed
	// slots, a power of two at most half full, each holding a source's index
	// plus one (0 marks an empty slot).
	srcs    []topology.IA
	srcIdx  []uint32
	lastSrc uint32
	n       int
}

// A page holds pageLen records; the first page starts at firstLen and
// doubles. The page directory starts with room for dirLen pages, so that a
// table of up to 32 768 records allocates it once.
const (
	pageShift = 9
	pageLen   = 1 << pageShift
	firstLen  = 16
	dirLen    = 64
	minSrcs   = 4
)

type record[V any] struct {
	src uint32
	num uint32
	val V
}

// key returns record r's reservation ID.
func (t *Table[V]) key(r *record[V]) reservation.ID {
	return reservation.ID{SrcAS: t.srcs[r.src], Num: r.num}
}

// srcOf returns ia's index in the source list, adding ia when the list lacks
// it. Only the first insertion of a key from a new source allocates.
func (t *Table[V]) srcOf(ia topology.IA) uint32 {
	if int(t.lastSrc) < len(t.srcs) && t.srcs[t.lastSrc] == ia {
		return t.lastSrc
	}
	i, ok := t.findSrc(ia)
	if !ok {
		i = uint32(len(t.srcs))
		t.srcs = append(t.srcs, ia)
		if 2*len(t.srcs) > len(t.srcIdx) {
			// Double the index (to minSrcs slots at first) and refile the list.
			t.srcIdx = make([]uint32, max(2*len(t.srcIdx), minSrcs))
			for k := range t.srcs {
				t.fileSrc(uint32(k))
			}
		} else {
			t.fileSrc(i)
		}
	}
	t.lastSrc = i
	return i
}

// findSrc returns ia's index in the source list.
func (t *Table[V]) findSrc(ia topology.IA) (uint32, bool) {
	if len(t.srcIdx) == 0 {
		return 0, false
	}
	mask := uint32(len(t.srcIdx) - 1)
	for j := t.srcHome(ia); t.srcIdx[j] != 0; j = (j + 1) & mask {
		if i := t.srcIdx[j] - 1; t.srcs[i] == ia {
			return i, true
		}
	}
	return 0, false
}

// fileSrc files source i at the first free slot of srcIdx from its home.
func (t *Table[V]) fileSrc(i uint32) {
	mask := uint32(len(t.srcIdx) - 1)
	j := t.srcHome(t.srcs[i])
	for t.srcIdx[j] != 0 {
		j = (j + 1) & mask
	}
	t.srcIdx[j] = i + 1
}

// srcHome returns the slot of srcIdx a probe for ia starts from.
func (t *Table[V]) srcHome(ia topology.IA) uint32 {
	return home(hash(reservation.ID{SrcAS: ia}), len(t.srcIdx))
}

// rec returns the record at position pos of the dense array.
func (t *Table[V]) rec(pos uint32) *record[V] {
	if t.pages == nil {
		return &t.first[pos]
	}
	return &t.pages[pos>>pageShift][pos&(pageLen-1)]
}

// room returns the number of records the pages have room for.
func (t *Table[V]) room() int {
	if t.pages == nil {
		return len(t.first)
	}
	return len(t.pages) * pageLen
}

// open makes room for one record more: it doubles the first page up to
// pageLen records, then adds a whole page. Only the doubling copies records.
func (t *Table[V]) open() {
	switch {
	case t.pages != nil:
		t.pages = append(t.pages, new([pageLen]record[V]))
	case len(t.first) < pageLen:
		first := make([]record[V], max(2*len(t.first), firstLen))
		copy(first, t.first)
		t.first = first
	default:
		t.pages = append(make([]*[pageLen]record[V], 0, dirLen), (*[pageLen]record[V])(t.first), new([pageLen]record[V]))
		t.first = nil
	}
}

// RecordSize returns the bytes one record of the table takes in its dense
// array: the key and a V, padded to V's alignment.
//
//colibri:allow(testonly) — the layout pins of cserv (TestEERRecordIs24Bytes), gateway (TestRecordBytesPinned) and monitor (TestWatchRecordBytesPinned) read it
func (*Table[V]) RecordSize() uintptr { return unsafe.Sizeof(record[V]{}) }

// Bytes returns the heap bytes the table holds, from its capacities: its
// pages, index, page directory and source list. The allocator rounds each up
// to a size class, which Bytes leaves out.
//
//colibri:allow(testonly) — cserv's TestCServBytesPerEER reads it
func (t *Table[V]) Bytes() int {
	const ptr, ia = int(unsafe.Sizeof(uintptr(0))), int(unsafe.Sizeof(topology.IA(0)))
	return (cap(t.first)+len(t.pages)*pageLen)*int(t.RecordSize()) + cap(t.pages)*ptr +
		(cap(t.slots)+cap(t.srcIdx))*4 + cap(t.srcs)*ia
}

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

// low returns the mask of a slot's position bits, 2^b − 1.
func (t *Table[V]) low() uint32 { return uint32(1)<<bits.Len(uint(len(t.slots))) - 1 }

// home returns the home of a key hashing to h in an index of n slots: the
// upper half of h scaled to n.
func home(h uint64, n int) uint32 { return uint32(h >> 32 * uint64(n) >> 32) }

// slotOf returns the slot of the record at pos whose key hashes to h, and
// the slot's home.
func (t *Table[V]) slotOf(h uint64, pos int) (s, hm uint32) {
	return uint32(h)&^t.low() | uint32(pos+1), home(h, len(t.slots))
}

// homeOf returns the home of id's slot.
func (t *Table[V]) homeOf(id reservation.ID) uint32 { return home(hash(id), len(t.slots)) }

// next returns the slot after i, wrapping at the end of the index.
func (t *Table[V]) next(i uint32) uint32 {
	if i++; int(i) == len(t.slots) {
		return 0
	}
	return i
}

// find returns the index slot holding id and its record, or -1 and nil.
func (t *Table[V]) find(id reservation.ID) (int, *record[V]) {
	if t.n == 0 {
		return -1, nil
	}
	h, low := hash(id), t.low()
	tag := uint32(h) &^ low
	for i := home(h, len(t.slots)); ; i = t.next(i) {
		s := t.slots[i]
		if s == 0 {
			return -1, nil
		}
		if s&^low == tag {
			if r := t.rec(s&low - 1); r.num == id.Num && t.srcs[r.src] == id.SrcAS {
				return int(i), r
			}
		}
	}
}

// Get returns id's record, or nil when the table holds none.
//
//colibri:nomalloc
func (t *Table[V]) Get(id reservation.ID) *V {
	if _, r := t.find(id); r != nil {
		return &r.val
	}
	return nil
}

// Put returns id's record, inserting a zero one first when the table holds
// none; added reports the insertion. Insertion allocates only when the
// index grows, the last page is full or the key's source AS is new to the
// table.
func (t *Table[V]) Put(id reservation.ID) (v *V, added bool) {
	if _, r := t.find(id); r != nil {
		return &r.val, false
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	if t.n == t.room() {
		t.open()
	}
	pos := t.n
	t.n++
	r := t.rec(uint32(pos))
	r.src, r.num = t.srcOf(id.SrcAS), id.Num
	t.place(t.slotOf(hash(id), pos))
	return &r.val, true
}

// place files slot s at the first free slot from its home.
func (t *Table[V]) place(s, home uint32) {
	i := home
	for t.slots[i] != 0 {
		i = t.next(i)
	}
	t.slots[i] = s
}

// grow enlarges the index by half (to minSlots at first) and refiles every
// record into it, in dense order.
func (t *Table[V]) grow() {
	t.slots = make([]uint32, max(len(t.slots)+len(t.slots)/2, minSlots))
	for pos := range t.n {
		t.place(t.slotOf(hash(t.key(t.rec(uint32(pos)))), pos))
	}
}

// Delete removes id's record and reports whether there was one.
func (t *Table[V]) Delete(id reservation.ID) bool {
	i, r := t.find(id)
	if r == nil {
		return false
	}
	low := t.low()
	pos := t.slots[i]&low - 1
	t.unslot(uint32(i))
	last := uint32(t.n - 1)
	lr := t.rec(last)
	if pos != last {
		// Swap-last compaction: re-point the last record's slot at pos.
		j := t.homeOf(t.key(lr))
		for t.slots[j]&low != last+1 {
			j = t.next(j)
		}
		t.slots[j] = t.slots[j]&^low | (pos + 1)
		*r = *lr
	}
	*lr = record[V]{}
	t.n--
	// Free the last page once it and the one before it are empty: one empty
	// page stays as hysteresis against a Put.
	if p := len(t.pages); p >= 2 && t.n <= (p-2)*pageLen {
		t.pages[p-1] = nil
		t.pages = t.pages[:p-1]
	}
	return true
}

// unslot empties index slot i by backward shift: each later slot of the
// probe run moves into the hole unless its home lies after the hole, with
// distances along the run taken modulo the index's size.
func (t *Table[V]) unslot(i uint32) {
	n, low := uint32(len(t.slots)), t.low()
	hole := i
	for j := t.next(hole); t.slots[j] != 0; j = t.next(j) {
		if home := t.homeOf(t.key(t.rec(t.slots[j]&low - 1))); (j+n-home)%n >= (j+n-hole)%n {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = 0
}

// Len returns the number of records.
func (t *Table[V]) Len() int { return t.n }

// At returns the key and record at position i of the dense array,
// 0 ≤ i < Len().
func (t *Table[V]) At(i int) (reservation.ID, *V) {
	r := t.rec(uint32(i))
	return t.key(r), &r.val
}
