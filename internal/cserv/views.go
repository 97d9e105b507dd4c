// views.go — the EER messages read where they lie. A hop checks the layout of
// what it received in one pass and records where each part starts; the
// handlers then read every field at its offset when they use it, so no hop
// copies the SegIDs, the path, the MACs or a wave's items out of the message.
// What a hop changes — the accumulator of a solo request, a wave's per-item
// grants and statuses — it writes in place into the copy it forwards
// (waveScratch.fwd), which is also the copy the views read at a wire hop.
//
// A view accepts exactly what the struct decoders of old accepted and returns
// the same error for the same input; those decoders are the oracle of
// FuzzEEViewOracle. The struct forms remain where a struct is built or handed
// out: the initiators encode from one, and UnmarshalEESetupReq materialises
// one from the view.
package cserv

import (
	"encoding/binary"
	"fmt"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// chainView locates in a request of tag 4/5 or 7 the layout the two share:
// the SegIDs, the splits, the path and, after the MAC-covered body, the MACs.
// Offsets are of the first byte of each part's entries.
type chainView struct {
	msg                       []byte
	seg, split, path, mac     int
	nSeg, nSplit, nPath, nMac int
	// bodyLen is the MAC-covered share of msg and end the message's exact
	// length: a wave's decoder of old ignored bytes after the last item.
	bodyLen, end int
}

// chain checks the SegIDs, the splits and the path of msg from offset off on,
// as the decoders of old read them, and returns the offset after the path.
func (c *chainView) chain(msg []byte, off int) (int, error) {
	c.msg = msg
	if len(msg) < off+1 {
		return 0, ErrTruncated
	}
	c.nSeg = int(msg[off])
	c.seg = off + 1
	off = c.seg + idLen*c.nSeg
	if len(msg) < off+1 {
		return 0, ErrTruncated
	}
	c.nSplit = int(msg[off])
	c.split = off + 1
	off = c.split + c.nSplit
	if len(msg) < off+2 {
		return 0, ErrTruncated
	}
	c.nPath = int(binary.BigEndian.Uint16(msg[off:]))
	if c.nPath > packet.MaxHops {
		return 0, fmt.Errorf("cserv: %d hops exceeds maximum", c.nPath)
	}
	c.path = off + 2
	off = c.path + hopLen*c.nPath
	if len(msg) < off {
		return 0, ErrTruncated
	}
	return off, nil
}

// macs checks the MACs that follow the body, which ends at off, and returns
// the offset after them.
func (c *chainView) macs(off int) (int, error) {
	c.bodyLen = off
	if len(c.msg) < off+2 {
		return 0, ErrTruncated
	}
	c.nMac = int(binary.BigEndian.Uint16(c.msg[off:]))
	if c.nMac > packet.MaxHops {
		return 0, fmt.Errorf("cserv: %d MACs exceeds maximum", c.nMac)
	}
	c.mac = off + 2
	off = c.mac + cryptoutil.MACSize*c.nMac
	if len(c.msg) < off {
		return 0, ErrTruncated
	}
	return off, nil
}

// body is the MAC-covered share of the message.
func (c *chainView) body() []byte { return c.msg[:c.bodyLen] }

func (c *chainView) segID(k int) reservation.ID { return idAt(c.msg, c.seg+idLen*k) }

// splits aliases the message, capacity-bounded.
func (c *chainView) splits() []uint8 { return c.msg[c.split : c.split+c.nSplit : c.split+c.nSplit] }

func (c *chainView) hop(i int) PathHop {
	b := c.msg[c.path+hopLen*i:]
	return PathHop{IA: topology.IA(binary.BigEndian.Uint64(b)),
		In: topology.IfID(binary.BigEndian.Uint16(b[8:])), Eg: topology.IfID(binary.BigEndian.Uint16(b[10:]))}
}

func (c *chainView) hopIA(i int) topology.IA {
	return topology.IA(binary.BigEndian.Uint64(c.msg[c.path+hopLen*i:]))
}

// hopField is hop i's interfaces, as σ covers them.
func (c *chainView) hopField(i int) packet.HopField {
	h := c.hop(i)
	return packet.HopField{In: h.In, Eg: h.Eg}
}

// index returns the first position of ia on the path, or -1.
func (c *chainView) index(ia topology.IA) int {
	for i := range c.nPath {
		if c.hopIA(i) == ia {
			return i
		}
	}
	return -1
}

// macAt returns the source's MAC towards hop i, nil past the last.
func (c *chainView) macAt(i int) *[cryptoutil.MACSize]byte {
	if i >= c.nMac {
		return nil
	}
	return (*[cryptoutil.MACSize]byte)(c.msg[c.mac+cryptoutil.MACSize*i:])
}

// cover names the SegRs covering hop idx: not ok unless they are one or two
// (RefusedCover).
func (c *chainView) cover(idx int) (hc hopCover, ok bool) {
	var coverBuf [2]int
	covering := coveringSegs(coverBuf[:0], c.nSeg, c.splits(), c.nPath, idx)
	if len(covering) == 0 || len(covering) > 2 {
		return hc, false
	}
	for _, k := range covering {
		hc.ids[hc.n] = c.segID(k)
		hc.n++
	}
	return hc, true
}

func idAt(b []byte, off int) reservation.ID {
	return reservation.ID{SrcAS: topology.IA(binary.BigEndian.Uint64(b[off:])), Num: binary.BigEndian.Uint32(b[off+8:])}
}

// eeReqFieldsLen is the size of what follows the path in an EESetupReq's body:
// BwKbps, ExpT, Ver, SrcHost, DstHost and the Renewal flag.
const eeReqFieldsLen = 8 + 4 + 2 + 4 + 4 + 1

// eeReqView is a checked EESetupReq (tags 4 and 5).
type eeReqView struct {
	chainView
	// fields is the offset of BwKbps.
	fields int
}

// load checks data as EESetupReq's decoder of old did — counts before what
// they size, exact length, the tag and the flag in agreement — and records
// its layout. The view aliases data.
func (v *eeReqView) load(data []byte) error {
	off, err := v.chain(data, 1+idLen)
	if err != nil {
		return err
	}
	v.fields = off
	if off, err = v.macs(off + eeReqFieldsLen); err != nil {
		return err
	}
	v.end = off + 8
	tag, flag := data[0], data[v.bodyLen-1]
	switch {
	case len(data) < v.end:
		return ErrTruncated
	case tag != tagEESetup && tag != tagEERenew:
		return ErrBadTag
	case flag > 1 || (flag == 1) != (tag == tagEERenew) || len(data) != v.end:
		return ErrNotCanonical
	}
	return nil
}

func (v *eeReqView) renewal() bool      { return v.msg[0] == tagEERenew }
func (v *eeReqView) id() reservation.ID { return idAt(v.msg, 1) }
func (v *eeReqView) bw() uint64         { return binary.BigEndian.Uint64(v.msg[v.fields:]) }

// accum is the accumulated grant, the message's last 8 bytes.
func (v *eeReqView) accum() uint64 { return binary.BigEndian.Uint64(v.msg[v.end-8:]) }

// setAccum overwrites the accumulator: the view's message must be the hop's
// own copy.
func (v *eeReqView) setAccum(kbps uint64) { binary.BigEndian.PutUint64(v.msg[v.end-8:], kbps) }

// item is the EER version the request asks for, as a wave would carry it.
func (v *eeReqView) item() EEBatchItem {
	b := v.msg[v.fields:]
	return EEBatchItem{ID: v.id(), BwKbps: binary.BigEndian.Uint64(b), ExpT: binary.BigEndian.Uint32(b[8:]),
		Ver: binary.BigEndian.Uint16(b[12:]), SrcHost: binary.BigEndian.Uint32(b[14:]), DstHost: binary.BigEndian.Uint32(b[18:])}
}

// UnmarshalEESetupReq parses an EESetupReq: the view's check, then a struct
// that owns copies of the message's parts (its wire aliases data).
func UnmarshalEESetupReq(data []byte) (*EESetupReq, error) {
	var v eeReqView
	if err := v.load(data); err != nil {
		return nil, err
	}
	it := v.item()
	r := &EESetupReq{ID: it.ID, BwKbps: it.BwKbps, ExpT: it.ExpT, Ver: it.Ver, SrcHost: it.SrcHost, DstHost: it.DstHost,
		Renewal: v.renewal(), AccumKbps: v.accum(), wire: data, bodyLen: v.bodyLen}
	r.SegIDs, r.Path, r.Macs = v.chainParts()
	if v.nSplit > 0 {
		r.Splits = append([]uint8(nil), v.splits()...)
	}
	return r, nil
}

// chainParts copies the SegIDs, the path and the MACs out of the message, nil
// for none, as the decoders of old did.
func (c *chainView) chainParts() (segIDs []reservation.ID, path []PathHop, macs [][cryptoutil.MACSize]byte) {
	if c.nSeg > 0 {
		segIDs = make([]reservation.ID, c.nSeg)
		for k := range segIDs {
			segIDs[k] = c.segID(k)
		}
	}
	if c.nPath > 0 {
		path = make([]PathHop, c.nPath)
		for i := range path {
			path[i] = c.hop(i)
		}
	}
	if c.nMac > 0 {
		macs = make([][cryptoutil.MACSize]byte, c.nMac)
		for i := range macs {
			macs[i] = *c.macAt(i)
		}
	}
	return segIDs, path, macs
}

// itemTail is a wave's per-item outcomes as they lie on the wire: for each
// item its grant (8 bytes) and status (1). The request's mutable tail and the
// response's items share the layout.
type itemTail []byte

func (t itemTail) len() int                    { return len(t) / eeBatchTailLen }
func (t itemTail) grant(i int) uint64          { return binary.BigEndian.Uint64(t[eeBatchTailLen*i:]) }
func (t itemTail) status(i int) Refusal        { return Refusal(t[eeBatchTailLen*i+8]) }
func (t itemTail) setGrant(i int, g uint64)    { binary.BigEndian.PutUint64(t[eeBatchTailLen*i:], g) }
func (t itemTail) setStatus(i int, st Refusal) { t[eeBatchTailLen*i+8] = byte(st) }

// live counts the items with status Granted.
func (t itemTail) live() (n int) {
	for i := 8; i < len(t); i += eeBatchTailLen {
		if t[i] == byte(Granted) {
			n++
		}
	}
	return n
}

// known reports whether every status is of the vocabulary, and counts the
// live ones.
func (t itemTail) known() (live int, ok bool) {
	ok = true
	for i := 8; i < len(t); i += eeBatchTailLen {
		st := Refusal(t[i])
		ok = ok && st.known()
		if st == Granted {
			live++
		}
	}
	return live, ok
}

// waveView is a checked EEBatchRenewReq (tag 7).
type waveView struct {
	chainView
	// items is the offset of the first item, n their count, tail the offset of
	// the mutable per-item tail.
	items, n, tail int
}

// load checks data as EEBatchRenewReq's decoder of old did — counts bounded
// by the bytes left, every item status of the vocabulary — and, as for every
// other EER message, nothing after the last item's tail (ErrNotCanonical). It
// records the layout. The view aliases data.
func (w *waveView) load(data []byte) error {
	if len(data) == 0 || data[0] != tagEEBatchRenew {
		return ErrBadTag
	}
	off, err := w.chain(data, 1)
	if err != nil {
		return err
	}
	if len(data) < off+4 {
		return ErrTruncated
	}
	n := binary.BigEndian.Uint32(data[off:])
	w.items = off + 4
	if uint64(n) > uint64((len(data)-w.items)/(eeBatchItemLen+eeBatchTailLen)) {
		return ErrTruncated
	}
	w.n = int(n)
	if w.tail, err = w.macs(w.items + eeBatchItemLen*w.n); err != nil {
		return err
	}
	// An item status outside the vocabulary before the bytes run out is
	// ErrNotCanonical, as the decoder of old found it item by item.
	full := min(w.n, (len(data)-w.tail)/eeBatchTailLen)
	if _, ok := itemTail(data[w.tail : w.tail+eeBatchTailLen*full]).known(); !ok {
		return ErrNotCanonical
	}
	if full < w.n {
		return ErrTruncated
	}
	if w.end = w.tail + eeBatchTailLen*w.n; len(data) != w.end {
		return ErrNotCanonical
	}
	return nil
}

// outcomes is the message's per-item tail.
func (w *waveView) outcomes() itemTail { return itemTail(w.msg[w.tail:w.end]) }

func (w *waveView) itemAt(i int) []byte { return w.msg[w.items+eeBatchItemLen*i:] }

func (w *waveView) itemID(i int) reservation.ID { return idAt(w.itemAt(i), 0) }

// itemSrc is item i's source AS.
func (w *waveView) itemSrc(i int) topology.IA {
	return topology.IA(binary.BigEndian.Uint64(w.itemAt(i)))
}

// itemLeg is what the hop leg reads of item i: its number, version, bandwidth
// asked and expiry.
func (w *waveView) itemLeg(i int) (num uint32, ver uint16, bw uint64, expT uint32) {
	b := w.itemAt(i)
	return binary.BigEndian.Uint32(b[8:]), binary.BigEndian.Uint16(b[12:]), binary.BigEndian.Uint64(b[14:]),
		binary.BigEndian.Uint32(b[22:])
}

// item is item i as a struct.
func (w *waveView) item(i int) EEBatchItem {
	b := w.itemAt(i)
	num, ver, bw, expT := w.itemLeg(i)
	return EEBatchItem{ID: reservation.ID{SrcAS: w.itemSrc(i), Num: num}, Ver: ver, BwKbps: bw, ExpT: expT,
		SrcHost: binary.BigEndian.Uint32(b[26:]), DstHost: binary.BigEndian.Uint32(b[30:])}
}

// eeRespView is a checked EESetupResp.
type eeRespView struct {
	msg []byte
	n   int
}

// load checks data as EESetupResp's decoder of old did: no more
// authenticators than a path has hops, each within the message, the refusal
// of the vocabulary and nothing after the last. The view aliases data.
func (v *eeRespView) load(data []byte) error {
	if len(data) < eeRespFixedLen {
		return ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(data[10:]))
	if n > packet.MaxHops {
		return fmt.Errorf("cserv: %d hop authenticators exceeds maximum", n)
	}
	off := eeRespFixedLen
	for range n {
		if len(data) < off+2 {
			return ErrTruncated
		}
		off += 2 + int(binary.BigEndian.Uint16(data[off:]))
		if len(data) < off {
			return ErrTruncated
		}
	}
	if !Refusal(data[0]).known() || len(data) != off {
		return ErrNotCanonical
	}
	v.msg, v.n = data, n
	return nil
}

func (v *eeRespView) refusal() Refusal { return Refusal(v.msg[0]) }
func (v *eeRespView) failedAt() int    { return int(v.msg[1]) }
func (v *eeRespView) final() uint64    { return binary.BigEndian.Uint64(v.msg[2:]) }

// auth returns the sealed authenticator at off, the offset of its length, and
// the offset of the next.
func (v *eeRespView) auth(off int) (enc []byte, next int) {
	next = off + 2 + int(binary.BigEndian.Uint16(v.msg[off:]))
	return v.msg[off+2 : next : next], next
}

// slot checks that the view, a granted response, has the shape hop idx of an
// n-hop path must receive — n authenticator slots, sealed by every hop behind
// idx and by no other — and returns the offset of slot idx, or -1.
func (v *eeRespView) slot(n, idx int) int {
	if v.n != n {
		return -1
	}
	off, slot := eeRespFixedLen, -1
	for i := range n {
		if i == idx {
			slot = off
		}
		enc, next := v.auth(off)
		if (i <= idx && len(enc) != 0) || (i > idx && len(enc) != sealedAuthLen) {
			return -1
		}
		off = next
	}
	return slot
}

// waveRespView is a checked EEBatchRenewResp.
type waveRespView struct {
	msg []byte
	// n is the item count, blobs the offset of the first blob, nb their count
	// and size the length of each.
	n, blobs, nb, size int
}

// load checks data as EEBatchRenewResp's decoder of old did: the item count
// bounded by the bytes left, every blob the length the statuses imply, the
// refusal and statuses of the vocabulary and nothing after the last blob. The
// view aliases data.
func (v *waveRespView) load(data []byte) error {
	const items = eeBatchRespFixedLen - 1
	if len(data) < items {
		return ErrTruncated
	}
	n := binary.BigEndian.Uint32(data[2:])
	if uint64(n) > uint64((len(data)-items)/eeBatchTailLen) {
		return ErrTruncated
	}
	off := items + eeBatchTailLen*int(n)
	live, known := itemTail(data[items:off]).known()
	if len(data) < off+1 {
		return ErrTruncated
	}
	nb, size := int(data[off]), blobLen(live)
	off++
	switch {
	case nb*size > len(data)-off:
		return ErrTruncated
	case nb > packet.MaxHops:
		return fmt.Errorf("cserv: %d blobs exceeds maximum", nb)
	case !known || !Refusal(data[0]).known() || len(data) != off+nb*size:
		return ErrNotCanonical
	}
	*v = waveRespView{msg: data, n: int(n), blobs: off, nb: nb, size: size}
	return nil
}

func (v *waveRespView) refusal() Refusal { return Refusal(v.msg[0]) }
func (v *waveRespView) failedAt() int    { return int(v.msg[1]) }

// outcomes is the response's per-item grants and statuses.
func (v *waveRespView) outcomes() itemTail {
	return itemTail(v.msg[eeBatchRespFixedLen-1 : eeBatchRespFixedLen-1+eeBatchTailLen*v.n])
}

// blob is hop h's blob, capacity-bounded.
func (v *waveRespView) blob(h int) []byte {
	off := v.blobs + v.size*h
	return v.msg[off : off+v.size : off+v.size]
}
