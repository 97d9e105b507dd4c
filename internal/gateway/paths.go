package gateway

import (
	"encoding/binary"
	"math/bits"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
)

// pathTab interns path headers: for each distinct path, the header
// Packet.SerializeTo encodes for a data packet over it with ResInfo, EERInfo,
// Ts, payload length and HVFs zero, kept once however many EERs it carries.
// An entry is found by its hop fields through an open-addressed index of
// entry+1 (0 marks an empty slot), probed linearly from the entry's hash and
// kept at most half full. It counts the records that name it; when the last
// lets go it leaves the index for its hop count's free list, and the next new
// path of that length takes it over. Not safe for concurrent use: the gateway
// lock guards it.
type pathTab struct {
	ents  []pathEnt
	index []uint32
	// free heads each hop count's free list (entry+1, 0 when empty).
	free [packet.MaxHops]uint32
	// live counts the entries some record names.
	live int
}

// pathEnt is one interned path header.
type pathEnt struct {
	hdr  []byte
	hash uint32
	refs uint32
	// next links the free list while refs is 0 (entry+1).
	next uint32
}

// holds reports whether the entry's hop fields are path's.
func (e *pathEnt) holds(path []packet.HopField) bool {
	if packet.PathLenOf(e.hdr) != len(path) {
		return false
	}
	hf := e.hdr[packet.HVFOffset(0):]
	for i, h := range path {
		if binary.BigEndian.Uint16(hf[4*i:]) != uint16(h.In) || binary.BigEndian.Uint16(hf[4*i+2:]) != uint16(h.Eg) {
			return false
		}
	}
	return true
}

// pathHash hashes a path's hop count and hop fields.
func pathHash(path []packet.HopField) uint32 {
	x := uint64(len(path))
	for _, h := range path {
		x = (x ^ uint64(h.In)<<16 ^ uint64(h.Eg)) * 0x100000001B3
	}
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return uint32(x)
}

// acquire returns the entry holding path's header, interning it first when
// no record names such an entry, and counts one more reference to it. path
// has 1 to packet.MaxHops hops.
func (p *pathTab) acquire(path []packet.HopField) uint32 {
	h := pathHash(path)
	if e, ok := p.find(h, path); ok {
		p.ents[e].refs++
		return e
	}
	if 2*(p.live+1) > len(p.index) {
		p.grow()
	}
	e := p.alloc(len(path))
	ent := &p.ents[e]
	tmpl := packet.Packet{Type: packet.TData, Path: path, HVFs: noHVFs[:len(path)*packet.HVFLen]}
	_, _ = tmpl.SerializeTo(ent.hdr) // Install has checked the path
	ent.hash, ent.refs = h, 1
	p.place(e)
	p.live++
	return e
}

// find returns the live entry holding path, whose hash is h.
func (p *pathTab) find(h uint32, path []packet.HopField) (uint32, bool) {
	if p.live == 0 {
		return 0, false
	}
	mask := uint32(len(p.index) - 1)
	for i := h & mask; p.index[i] != 0; i = (i + 1) & mask {
		if e := p.index[i] - 1; p.ents[e].hash == h && p.ents[e].holds(path) {
			return e, true
		}
	}
	return 0, false
}

// alloc returns a free entry with a header buffer of a path of the given
// hops: the head of that hop count's free list, or a new entry.
func (p *pathTab) alloc(hops int) uint32 {
	if f := p.free[hops-1]; f != 0 {
		p.free[hops-1] = p.ents[f-1].next
		p.ents[f-1].next = 0
		return f - 1
	}
	p.ents = append(p.ents, pathEnt{hdr: make([]byte, packet.DataLen(hops, 0))})
	return uint32(len(p.ents) - 1)
}

// place files entry e in the index at the first free slot from its home.
func (p *pathTab) place(e uint32) {
	mask := uint32(len(p.index) - 1)
	i := p.ents[e].hash & mask
	for p.index[i] != 0 {
		i = (i + 1) & mask
	}
	p.index[i] = e + 1
}

// grow doubles the index and refiles every live entry into it.
func (p *pathTab) grow() {
	p.index = make([]uint32, max(2*len(p.index), 8))
	for e := range p.ents {
		if p.ents[e].refs > 0 {
			p.place(uint32(e))
		}
	}
}

// release drops one reference to entry e, freeing the entry with its last.
func (p *pathTab) release(e uint32) {
	ent := &p.ents[e]
	if ent.refs--; ent.refs > 0 {
		return
	}
	// Close the entry's hole in the index by backward shift.
	mask := uint32(len(p.index) - 1)
	hole := ent.hash & mask
	for p.index[hole] != e+1 {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; p.index[j] != 0; j = (j + 1) & mask {
		if home := p.ents[p.index[j]-1].hash & mask; (j-home)&mask >= (j-hole)&mask {
			p.index[hole] = p.index[j]
			hole = j
		}
	}
	p.index[hole] = 0
	hops := packet.PathLenOf(ent.hdr)
	ent.next, p.free[hops-1] = p.free[hops-1], e+1
	p.live--
}

// sigPageBytes bounds a σ slab's page.
const sigPageBytes = 64 << 10

// sigSlab holds the σs of the records of one hop count, hops × 16 bytes a
// slot, in pages of 2^shift slots. The first page grows by doubling up to a
// whole page; every later page is allocated whole, so the slab's spare
// capacity is at most a page. A free slot holds the next free slot+1 (0 ends
// the list) in its first four bytes. Not safe for concurrent use: the gateway
// lock guards it.
type sigSlab struct {
	pages  [][]byte
	stride int
	shift  uint
	// next is the first slot never handed out; free heads the free list.
	next, free uint32
	// used counts the slots handed out and not freed.
	used int
}

// firstPageSlots is the first page's initial size in slots.
const firstPageSlots = 16

// at returns slot s's σs.
func (sl *sigSlab) at(s uint32) []byte {
	off := int(s&(1<<sl.shift-1)) * sl.stride
	return sl.pages[s>>sl.shift][off : off+sl.stride]
}

// alloc hands out a slot for the σs of a path of the given hops, the slab's
// hop count.
func (sl *sigSlab) alloc(hops int) uint32 {
	sl.used++
	if f := sl.free; f != 0 {
		sl.free = binary.LittleEndian.Uint32(sl.at(f - 1))
		return f - 1
	}
	if sl.stride == 0 {
		sl.stride = hops * cryptoutil.KeySize
		sl.shift = uint(bits.Len(uint(sigPageBytes/sl.stride)) - 1)
	}
	s := sl.next
	sl.next++
	page, need := int(s>>sl.shift), int(s&(1<<sl.shift-1)+1)*sl.stride
	switch {
	case page == len(sl.pages) && page == 0:
		sl.pages = append(sl.pages, make([]byte, min(firstPageSlots, 1<<sl.shift)*sl.stride))
	case page == len(sl.pages):
		sl.pages = append(sl.pages, make([]byte, sl.stride<<sl.shift))
	case need > len(sl.pages[page]):
		grown := make([]byte, 2*len(sl.pages[page]))
		copy(grown, sl.pages[page])
		sl.pages[page] = grown
	}
	return s
}

// release frees slot s, clearing its σs.
func (sl *sigSlab) release(s uint32) {
	b := sl.at(s)
	clear(b)
	binary.LittleEndian.PutUint32(b, sl.free)
	sl.free = s + 1
	sl.used--
}
