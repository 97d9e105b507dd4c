package flattab

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// check compares the table with its map model: same size, every model key
// found with its value (read by val), every record reached by position is in
// the model once, every index slot names a live record — no record twice —
// whose tag bits it carries, and the index is at most ¾ full. The pages must
// hold every record, at most one page beyond them, and zero records past the
// last, and the source list must be consistent (checkSrcs).
func check[V any](t *testing.T, tab *Table[V], model map[reservation.ID]uint64, val func(*V) uint64) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len %d, model %d", tab.Len(), len(model))
	}
	checkPages(t, tab, val)
	checkSrcs(t, tab)
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
		if pos < 0 || pos >= tab.Len() || named[pos] || uint32(hash(tab.key(tab.rec(uint32(pos)))))&^low != s&^low {
			t.Fatalf("slot %#x names record %d of %d twice or with another tag", s, pos, tab.Len())
		}
		named[pos] = true
		used++
	}
	if used != tab.Len() || 4*used > 3*len(tab.slots) && used > 0 {
		t.Fatalf("%d slots used for %d records in an index of %d", used, tab.Len(), len(tab.slots))
	}
}

// checkPages checks the pages against the table's length: the first page a
// power of two from firstLen to pageLen records, or whole pages no more than
// one beyond those the records fill, and every record past the last a zero
// one.
func checkPages[V any](t *testing.T, tab *Table[V], val func(*V) uint64) {
	t.Helper()
	n, room := tab.Len(), tab.room()
	switch {
	case tab.pages == nil && room != 0 && (room < firstLen || room > pageLen || room&(room-1) != 0):
		t.Fatalf("a first page of %d records", room)
	case tab.pages != nil && (tab.first != nil || len(tab.pages) > (n+pageLen-1)/pageLen+1):
		t.Fatalf("%d pages (first page apart: %v) for %d records", len(tab.pages), tab.first != nil, n)
	case room < n:
		t.Fatalf("room for %d records holds %d", room, n)
	}
	for pos := n; pos < room; pos++ {
		if r := tab.rec(uint32(pos)); r.src != 0 || r.num != 0 || val(&r.val) != 0 {
			t.Fatalf("position %d past the last record %d holds source %d, number %d: %d", pos, n-1, r.src, r.num, val(&r.val))
		}
	}
}

// checkSrcs checks the source list: no source listed twice, each found at its
// own index through srcIdx, a power of two at most half full, and every live
// record naming a listed one.
func checkSrcs[V any](t *testing.T, tab *Table[V]) {
	t.Helper()
	seen := make(map[topology.IA]bool, len(tab.srcs))
	for i, ia := range tab.srcs {
		if j, ok := tab.findSrc(ia); seen[ia] || !ok || j != uint32(i) {
			t.Fatalf("source %v at %d: listed before %v, found at %d (%v)", ia, i, seen[ia], j, ok)
		}
		seen[ia] = true
	}
	if n := len(tab.srcIdx); n&(n-1) != 0 || 2*len(tab.srcs) > n && len(tab.srcs) > 0 {
		t.Fatalf("%d sources in a source index of %d slots", len(tab.srcs), n)
	}
	for pos := range tab.Len() {
		if r := tab.rec(uint32(pos)); int(r.src) >= len(tab.srcs) {
			t.Fatalf("record %d names source %d of %d", pos, r.src, len(tab.srcs))
		}
	}
}

// wideSrcs lists 331 source ASes in three interleaved runs: ASes that differ
// only in the ISD, only in the AS number's high bits, and only in its low
// bits.
var wideSrcs = func() []topology.IA {
	ias := make([]topology.IA, 331)
	for i := range ias {
		k := i / 3
		switch i % 3 {
		case 0:
			ias[i] = topology.MustIA(topology.ISD(1+k), 3)
		case 1:
			ias[i] = topology.MustIA(1, topology.ASID(3|uint64(1+k)<<40))
		default:
			ias[i] = topology.MustIA(1, topology.ASID(4+k))
		}
	}
	return ias
}()

// rec28 is a value of 28 bytes and 4-byte alignment, which a record packs
// behind its key with no padding. A value is
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
// the number. Op 0xff resizes the table instead, to the key's bits 0–10 (see
// runScript), so that a short script reaches every page edge and, with fresh
// keys from the 331 sources of wideSrcs, outgrows the source list's scan.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 1, 0, 1, 3, 0})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 2, 1, 0, 2, 5, 0, 3, 0, 0})
	// Each first-page doubling and each page edge, crossed up and down with
	// keyed puts, deletes and a walk around it: 15/16/17 records, …, 511/512/513
	// and 1023/1024/1025.
	resize := func(n int) []byte { return []byte{0xff, byte(n), byte(n >> 8)} }
	for edge := firstLen; edge <= 2*pageLen; edge *= 2 {
		var s []byte
		for _, n := range []int{edge - 1, edge, edge + 1, edge - 1, edge + 1} {
			s = append(s, resize(n)...)
			s = append(s, 0, 1, 0, 2, 1, 0, 3, 1, 0, 0, 2, 0x80)
		}
		s = append(s, 4, 1, 0)
		s = append(s, resize(edge)...)
		f.Add(append(s, resize(0)...))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		runScript(t, script, func(v *uint64, x uint64) { *v = x }, func(v *uint64) uint64 { return *v })
		runScript(t, script, func(v *rec28, x uint64) { *v = to28(x) }, from28)
	})
}

// runScript runs one FuzzTable script on a Table[V] whose values set writes
// and val reads. A resize puts fresh keys, their source ASes taken from
// wideSrcs in turn, until the table holds k&0x7ff records, or deletes its live
// ones, oldest first, until it does or none is left.
func runScript[V any](t *testing.T, script []byte, set func(*V, uint64), val func(*V) uint64) {
	var tab Table[V]
	model := make(map[reservation.ID]uint64)
	var bulk []reservation.ID
	var made uint32
	for n := 0; n+3 <= len(script); n += 3 {
		op, k := script[n]%5, binary.LittleEndian.Uint16(script[n+1:])
		if script[n] == 0xff {
			op = 5
		}
		id := reservation.ID{SrcAS: topology.MustIA(1, topology.ASID(1+k>>15)), Num: uint32(k & 0x7f)}
		switch op {
		case 5: // resize
			for want := int(k & 0x7ff); tab.Len() < want; {
				made++
				bid := reservation.ID{SrcAS: wideSrcs[int(made)%len(wideSrcs)], Num: made}
				v, _ := tab.Put(bid)
				set(v, uint64(made)<<1)
				model[bid] = val(v)
				bulk = append(bulk, bid)
			}
			for ; tab.Len() > int(k&0x7ff) && len(bulk) > 0; bulk = bulk[1:] {
				if _, ok := model[bulk[0]]; ok && !tab.Delete(bulk[0]) {
					t.Fatalf("resize: Delete(%v) missed", bulk[0])
				}
				delete(model, bulk[0])
			}
			check(t, &tab, model, val)
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

// TestRecordPacksSmallValues pins the record layout: the key costs 8 bytes, a
// source index and the number, and a value of 4- or 8-byte alignment packs
// right behind it.
func TestRecordPacksSmallValues(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"rec28", (*Table[rec28])(nil).RecordSize(), 36},
		{"uint32", (*Table[uint32])(nil).RecordSize(), 12},
		{"uint64", (*Table[uint64])(nil).RecordSize(), 16},
		{"[4]uint64", (*Table[[4]uint64])(nil).RecordSize(), 40},
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

// TestLargeTableAgreesWithModel fills a table with 2²⁰ keys from the 331
// sources of wideSrcs, so that its index holds between 4/3 and 2 slots per key
// and a slot keeps at least 11 bits of tag, then deletes half of the keys one
// by one with Delete and the other half by deleting walks, checking every Get
// and At against the map model between the stages.
func TestLargeTableAgreesWithModel(t *testing.T) {
	const n = 1 << 20
	var tab Table[uint64]
	model := make(map[reservation.ID]uint64, n)
	val := func(v *uint64) uint64 { return *v }
	ias := wideSrcs
	id := func(i int) reservation.ID { return reservation.ID{SrcAS: ias[i%len(ias)], Num: uint32(i / len(ias))} }
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

// twinSlots and twinPages hold TestTableBytesPerRecord's copies of an index
// while it measures them.
var (
	twinSlots []uint32
	twinPages []*[pageLen]record[rec28]
)

// TestTableBytesPerRecord pins what a table holds on the heap: at every size
// from one record to three pages and one, and every 1 000 records from 30 000
// to 60 000 (across the steps by which an array grown by append would have
// grown a quarter), at most its records, its index (slots and page
// directory) and one page more.
func TestTableBytesPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	heap := func() int {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int(m.HeapAlloc)
	}
	src := topology.MustIA(1, 11)
	fill := func(tab *Table[rec28], from, to int) {
		for i := from; i < to; i++ {
			tab.Put(reservation.ID{SrcAS: src, Num: uint32(i)})
		}
	}
	// fresh returns the live heap a new table of n records adds.
	fresh := func(n int) int {
		before := heap()
		tab := new(Table[rec28])
		fill(tab, 0, n)
		got := heap() - before
		runtime.KeepAlive(tab)
		return got
	}
	// index returns the heap an index and a page directory of the table's
	// capacities take, measured on twins of them.
	var idxKey [2]int
	idx := 0
	index := func(tab *Table[rec28]) int {
		if k := [2]int{cap(tab.slots), cap(tab.pages)}; k != idxKey {
			before := heap()
			twinSlots, twinPages = make([]uint32, k[0]), make([]*[pageLen]record[rec28], k[1])
			idx, idxKey = heap()-before, k
			twinSlots, twinPages = nil, nil
		}
		return idx
	}
	tab := new(Table[rec28])
	rec, page := int(tab.RecordSize()), pageLen*int(tab.RecordSize())
	base := heap()
	for n := 1; n <= 60_000; n++ {
		fill(tab, n-1, n)
		if n > 3*pageLen+1 && (n < 30_000 || n%1000 != 0) {
			continue
		}
		ix := index(tab)
		bound := n*rec + ix + page
		if heap()-base <= bound {
			continue
		}
		// What else the process allocated since base counts in that reading;
		// the least of three fresh builds is the table's own.
		if got := min(fresh(n), fresh(n), fresh(n)); got > bound {
			t.Fatalf("%d records hold %d heap bytes, %.1f per record: records %d, index %d, and %d beyond them, more than a page of %d",
				n, got, float64(got)/float64(n), n*rec, ix, got-n*rec-ix, page)
		}
	}
	runtime.KeepAlive(tab)
}

// TestBytesMatchesHeap pins Bytes against the live heap a table holds, at
// sizes across the first page's doublings, the page edges and the index's
// growths, with keys from one source and from the 331 of wideSrcs, and after
// a drain: the two agree within one page.
func TestBytesMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	heap := func() int {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int(m.HeapAlloc)
	}
	page := pageLen * int((*Table[rec28])(nil).RecordSize())
	for _, srcs := range [][]topology.IA{wideSrcs[:1], wideSrcs} {
		for _, c := range []struct{ fill, keep int }{
			{1, 1}, {17, 17}, {300, 300}, {513, 513}, {5000, 5000}, {40_000, 40_000}, {40_000, 700},
		} {
			build := func() (got, want int) {
				before := heap()
				tab := new(Table[rec28])
				for i := range c.fill {
					tab.Put(reservation.ID{SrcAS: srcs[i%len(srcs)], Num: uint32(i)})
				}
				for i := c.keep; i < c.fill; i++ {
					tab.Delete(reservation.ID{SrcAS: srcs[i%len(srcs)], Num: uint32(i)})
				}
				got = heap() - before
				runtime.KeepAlive(tab)
				return got, tab.Bytes()
			}
			// What the process allocated or freed meanwhile counts in a
			// reading, and the allocator books small objects by the span: the
			// median of five builds is the table's own.
			var got [5]int
			var want int
			for i := range got {
				got[i], want = build()
			}
			slices.Sort(got[:])
			if d := got[2] - want; d < -page || d > page {
				t.Errorf("%d sources, %d records put, %d kept: %d heap bytes, Bytes %d, want within a page (%d)", len(srcs), c.fill, c.keep, got[2], want, page)
			}
		}
	}
}

// TestTablePagesReturn: a table that held 100 000 records and drained to
// 1 000 keeps the pages those fill and one more, not its peak.
func TestTablePagesReturn(t *testing.T) {
	var tab Table[uint64]
	model := make(map[reservation.ID]uint64)
	src := topology.MustIA(1, 11)
	for i := range uint32(100_000) {
		v, _ := tab.Put(reservation.ID{SrcAS: src, Num: i})
		*v = uint64(i)
		if i < 1000 {
			model[reservation.ID{SrcAS: src, Num: i}] = uint64(i)
		}
	}
	for i := uint32(1000); i < 100_000; i++ {
		if !tab.Delete(reservation.ID{SrcAS: src, Num: i}) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if want := (1000+pageLen-1)/pageLen + 1; len(tab.pages) > want {
		t.Errorf("1 000 records left hold %d pages, want at most %d", len(tab.pages), want)
	}
	check(t, &tab, model, func(v *uint64) uint64 { return *v })
}

// TestPageEdgeChurnAllocatesNothing: a table whose size goes back and forth
// across a page edge keeps its spare page, rather than freeing it and opening
// a new one on every turn.
func TestPageEdgeChurnAllocatesNothing(t *testing.T) {
	var tab Table[uint64]
	src := topology.MustIA(1, 11)
	for i := range uint32(2 * pageLen) {
		tab.Put(reservation.ID{SrcAS: src, Num: i})
	}
	extra := reservation.ID{SrcAS: src, Num: 1 << 20}
	if allocs := testing.AllocsPerRun(100, func() {
		tab.Put(extra)
		tab.Delete(extra)
	}); allocs != 0 {
		t.Errorf("a Put and a Delete across a page edge allocate %.1f times", allocs)
	}
}

// BenchmarkTableGet looks up present keys, in a random order, in tables of
// 10³, 10⁵ and 10⁶ CServ-shaped records (rec28): the cost of a hit, with the
// page load in it.
func BenchmarkTableGet(b *testing.B) {
	for _, n := range []int{1e3, 1e5, 1e6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var tab Table[rec28]
			ids := make([]reservation.ID, n)
			for i := range ids {
				ids[i] = reservation.ID{SrcAS: topology.MustIA(1, topology.ASID(11+i%3)), Num: uint32(i)}
				tab.Put(ids[i])
			}
			rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				if tab.Get(ids[j]) == nil {
					b.Fatalf("%v missing", ids[j])
				}
				if j++; j == n {
					j = 0
				}
			}
		})
	}
}
