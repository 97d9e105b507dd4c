// codec_oracle_test.go — the struct decoders of the EER messages the hops ran
// before they read their requests through views (views.go). They are kept
// verbatim as the oracle of FuzzEEViewOracle: a view accepts exactly what they
// accept, with the same error, and reads every field as they decode it.
package cserv

import (
	"fmt"
	"slices"

	"colibri/internal/packet"
)

// unmarshal decodes data into r, reusing the capacity of r's slices. It is
// canonical-only: a message whose re-encoding would differ from data — the
// tag and the Renewal flag disagree, the flag is neither 0 nor 1, bytes
// follow the accumulator — is an error, not something to normalise, because
// the handler authenticates and forwards data itself.
func (r *EESetupReq) unmarshal(data []byte) error {
	d := decoder{buf: data}
	tag := d.u8()
	r.ID = d.id()
	r.SegIDs = r.SegIDs[:0]
	nseg := int(d.u8())
	if d.err == nil && nseg > len(d.buf)/idLen {
		return ErrTruncated
	}
	for i := 0; i < nseg && d.err == nil; i++ {
		r.SegIDs = append(r.SegIDs, d.id())
	}
	r.Splits = append(r.Splits[:0], d.take(int(d.u8()))...)
	r.Path = d.hops(r.Path[:0])
	r.BwKbps = d.u64()
	r.ExpT = d.u32()
	r.Ver = d.u16()
	r.SrcHost = d.u32()
	r.DstHost = d.u32()
	flag := d.u8()
	r.Renewal = flag == 1
	r.wire, r.bodyLen = data, len(data)-len(d.buf)
	r.Macs = d.macs(r.Macs[:0])
	r.AccumKbps = d.u64()
	switch {
	case d.err != nil:
		return d.err
	case tag != tagEESetup && tag != tagEERenew:
		return ErrBadTag
	case flag > 1 || r.Renewal != (tag == tagEERenew) || len(d.buf) != 0:
		return ErrNotCanonical
	}
	return nil
}

// unmarshal decodes data into r, reusing the capacity of r.EncAuths. Like the
// request decoder it accepts only what Marshal produces, and no more
// authenticators than a path has hops.
func (r *EESetupResp) unmarshal(data []byte) error {
	d := decoder{buf: data}
	r.Refusal = Refusal(d.u8())
	r.FailedAt = d.u8()
	r.FinalKbps = d.u64()
	n := int(d.u16())
	if d.err == nil && n > packet.MaxHops {
		return fmt.Errorf("cserv: %d hop authenticators exceeds maximum", n)
	}
	r.EncAuths = r.EncAuths[:0]
	for i := 0; i < n && d.err == nil; i++ {
		r.EncAuths = append(r.EncAuths, d.take(int(d.u16())))
	}
	switch {
	case d.err != nil:
		return d.err
	case !r.Refusal.known() || len(d.buf) != 0:
		return ErrNotCanonical
	}
	return nil
}

// unmarshal decodes data into r, reusing the capacity of r's slices. A status
// outside the vocabulary, or bytes after the last item's tail, are
// ErrNotCanonical.
func (r *EEBatchRenewReq) unmarshal(data []byte) error {
	d := decoder{buf: data}
	if d.u8() != tagEEBatchRenew {
		return ErrBadTag
	}
	r.SegIDs, r.Splits = r.SegIDs[:0], r.Splits[:0]
	nseg := int(d.u8())
	for i := 0; i < nseg && d.err == nil; i++ {
		r.SegIDs = append(r.SegIDs, d.id())
	}
	nsplit := int(d.u8())
	for i := 0; i < nsplit && d.err == nil; i++ {
		r.Splits = append(r.Splits, d.u8())
	}
	r.Path = d.hops(r.Path[:0])
	n := int(d.u32())
	if d.err == nil && n > len(d.buf)/(eeBatchItemLen+eeBatchTailLen) {
		return ErrTruncated
	}
	r.Items, r.Accums, r.Status = slices.Grow(r.Items[:0], n), slices.Grow(r.Accums[:0], n), slices.Grow(r.Status[:0], n)
	for i := 0; i < n && d.err == nil; i++ {
		r.Items = append(r.Items, EEBatchItem{
			ID: d.id(), Ver: d.u16(), BwKbps: d.u64(),
			ExpT: d.u32(), SrcHost: d.u32(), DstHost: d.u32(),
		})
	}
	r.bodyLen = len(data) - len(d.buf)
	r.Macs = d.macs(r.Macs[:0])
	r.wire = data[:len(data)-len(d.buf)]
	for i := 0; i < n && d.err == nil; i++ {
		r.Accums = append(r.Accums, d.u64())
		if r.Status = append(r.Status, Refusal(d.u8())); !r.Status[i].known() {
			return ErrNotCanonical
		}
	}
	if d.err == nil && len(d.buf) != 0 {
		return ErrNotCanonical
	}
	return d.err
}

// unmarshal decodes data into r, reusing the capacity of r's slices. It is
// canonical-only, like the solo decoders: a refusal or an item status outside
// the vocabulary, or bytes after the last blob, are ErrNotCanonical.
func (r *EEBatchRenewResp) unmarshal(data []byte) error {
	d := decoder{buf: data}
	r.Refusal = Refusal(d.u8())
	r.FailedAt = d.u8()
	n := int(d.u32())
	if d.err == nil && n > len(d.buf)/eeBatchTailLen {
		return ErrTruncated
	}
	r.Granted, r.Status = slices.Grow(r.Granted[:0], n), slices.Grow(r.Status[:0], n)
	live, known := 0, r.Refusal.known()
	for i := 0; i < n && d.err == nil; i++ {
		r.Granted = append(r.Granted, d.u64())
		st := Refusal(d.u8())
		r.Status = append(r.Status, st)
		if st == Granted {
			live++
		}
		known = known && st.known()
	}
	nb, size := int(d.u8()), blobLen(live)
	switch {
	case d.err != nil:
		return d.err
	case nb*size > len(d.buf):
		return ErrTruncated
	case nb > packet.MaxHops:
		return fmt.Errorf("cserv: %d blobs exceeds maximum", nb)
	}
	r.Blobs = slices.Grow(r.Blobs[:0], nb)
	for range nb {
		r.Blobs = append(r.Blobs, d.take(size))
	}
	if !known || len(d.buf) != 0 {
		return ErrNotCanonical
	}
	return nil
}

// take returns the next n bytes without copying them: the result aliases the
// message (capacity-bounded, so an append cannot write into what follows).
// nil when n is 0 or the message is short.
func (d *decoder) take(n int) []byte {
	if n == 0 || !d.need(n) {
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// eeRespSlot checks that resp, a granted response of size bytes, has the shape
// hop idx of an n-hop path must receive — n authenticator slots, sealed by
// every hop behind idx and by no other — and returns the offset of slot idx,
// or -1.
func eeRespSlot(resp *EESetupResp, size, n, idx int) int {
	if len(resp.EncAuths) != n {
		return -1
	}
	for i, ea := range resp.EncAuths {
		if (i <= idx && len(ea) != 0) || (i > idx && len(ea) != sealedAuthLen) {
			return -1
		}
	}
	return size - (n-1-idx)*(2+sealedAuthLen) - 2
}
