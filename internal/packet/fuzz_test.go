package packet

import (
	"bytes"
	"errors"
	"testing"

	"colibri/internal/topology"
)

// FuzzDecodeFromBytes: arbitrary input must never panic, the hop-only
// DecodeHop must agree with DecodeFromBytes (checkDecodeHop), and whatever
// decodes successfully must re-serialize to an equivalent packet
// (decode–encode–decode fixpoint).
func FuzzDecodeFromBytes(f *testing.F) {
	p := samplePacket()
	buf, _ := p.Serialize()
	f.Add(buf)
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add(bytes.Repeat([]byte{0xFF}, 100))
	truncated := append([]byte(nil), buf[:len(buf)-3]...)
	f.Add(truncated)
	maxBuf, _ := maxHopPacket().Serialize()
	f.Add(maxBuf)
	f.Add(append(append([]byte(nil), buf...), buf...)) // trailing bytes past one packet

	f.Fuzz(func(t *testing.T, data []byte) {
		var q Packet
		n, err := q.DecodeFromBytes(data)
		checkDecodeHop(t, data, &q, n, err)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		out := make([]byte, q.Length())
		m, err := q.SerializeTo(out)
		if err != nil {
			t.Fatalf("re-serialize of decoded packet failed: %v", err)
		}
		var q2 Packet
		if _, err := q2.DecodeFromBytes(out[:m]); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if q2.Res != q.Res || q2.EER != q.EER || q2.Ts != q.Ts ||
			q2.Type != q.Type || q2.CurrHop != q.CurrHop ||
			!bytes.Equal(q2.HVFs, q.HVFs) || !bytes.Equal(q2.Payload, q.Payload) {
			t.Fatal("decode–encode–decode not a fixpoint")
		}
	})
}

// checkDecodeHop holds DecodeHop to DecodeFromBytes on data, given the
// latter's packet, length and error: it fails exactly when DecodeFromBytes
// fails, with the same sentinel, and otherwise fills every field but Path
// alike, empties a stale Path and returns Path[CurrHop].
func checkDecodeHop(t *testing.T, data []byte, full *Packet, n int, err error) {
	t.Helper()
	h := Packet{Path: make([]HopField, 3)}
	hop, hn, herr := h.DecodeHop(data)
	if (err == nil) != (herr == nil) {
		t.Fatalf("DecodeFromBytes: %v; DecodeHop: %v", err, herr)
	}
	if err != nil {
		for _, sentinel := range []error{ErrTooShort, ErrBadVersion, ErrBadPath, ErrBadCurrHop} {
			if errors.Is(err, sentinel) != errors.Is(herr, sentinel) {
				t.Fatalf("DecodeFromBytes: %v; DecodeHop: %v", err, herr)
			}
		}
		return
	}
	if hn != n || h.Type != full.Type || h.CurrHop != full.CurrHop || h.Res != full.Res ||
		h.EER != full.EER || h.Ts != full.Ts ||
		!bytes.Equal(h.HVFs, full.HVFs) || !bytes.Equal(h.Payload, full.Payload) {
		t.Fatalf("DecodeHop %+v (%d bytes) differs from DecodeFromBytes %+v (%d bytes)", h, hn, *full, n)
	}
	if len(h.Path) != 0 || hop != full.Path[full.CurrHop] {
		t.Fatalf("DecodeHop: hop %+v and path %v, want hop %+v and no path", hop, h.Path, full.Path[full.CurrHop])
	}
}

// maxHopPacket builds a packet at the MaxHops path-length ceiling — the
// largest header the wire format permits.
func maxHopPacket() *Packet {
	p := samplePacket()
	p.Path = make([]HopField, MaxHops)
	for i := range p.Path {
		p.Path[i] = HopField{In: topology.IfID(2 * i), Eg: topology.IfID(2*i + 1)}
	}
	p.HVFs = make([]byte, MaxHops*HVFLen)
	for i := range p.HVFs {
		p.HVFs[i] = byte(i)
	}
	return p
}

// FuzzDecodeStream: decoding a byte stream as a sequence of packets — the
// shape a batched burst arrives in — must never panic, must always make
// progress (no zero-length success), and every decoded packet must
// round-trip. The seeds cover the batch boundaries the burst pipeline
// produces: clean multi-packet concatenations, a truncated final packet,
// and a maximum-size header.
func FuzzDecodeStream(f *testing.F) {
	one, _ := samplePacket().Serialize()
	maxBuf, _ := maxHopPacket().Serialize()
	var burst []byte
	for i := 0; i < 4; i++ { // a 4-packet burst back to back
		burst = append(burst, one...)
	}
	f.Add(burst)
	f.Add(append(append([]byte(nil), one...), one[:len(one)-5]...)) // truncated tail
	f.Add(append(append([]byte(nil), maxBuf...), one...))
	f.Add([]byte{})
	f.Add(one[:1])

	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		for off < len(data) {
			var q Packet
			n, err := q.DecodeFromBytes(data[off:])
			if err != nil {
				return // rest of the stream is garbage; stop like a receiver would
			}
			if n <= 0 || off+n > len(data) {
				t.Fatalf("decode at offset %d consumed %d of %d remaining bytes",
					off, n, len(data)-off)
			}
			out := make([]byte, q.Length())
			m, err := q.SerializeTo(out)
			if err != nil {
				t.Fatalf("re-serialize of stream packet at offset %d failed: %v", off, err)
			}
			var q2 Packet
			if k, err := q2.DecodeFromBytes(out[:m]); err != nil || k != m {
				// The canonical re-encoding must decode back in one piece —
				// otherwise a forwarded burst would corrupt at this boundary.
				t.Fatalf("re-decode of stream packet at offset %d: consumed %d of %d, err %v",
					off, k, m, err)
			}
			if q2.Res != q.Res || q2.EER != q.EER || q2.Ts != q.Ts ||
				q2.Type != q.Type || q2.CurrHop != q.CurrHop ||
				!bytes.Equal(q2.HVFs, q.HVFs) || !bytes.Equal(q2.Payload, q.Payload) {
				t.Fatalf("stream packet at offset %d: decode–encode–decode not a fixpoint", off)
			}
			off += n
		}
	})
}
