package cserv

import (
	"bytes"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
)

// segrCodecs are the SegR decoders with their encoders: each decodes data
// and, if it accepts it, re-encodes what it decoded.
var segrCodecs = []struct {
	name   string
	decode func(data []byte) (marshal func() []byte, err error)
}{
	{"SegSetupReq", func(data []byte) (func() []byte, error) {
		r, err := UnmarshalSegSetupReq(data)
		if err != nil {
			return nil, err
		}
		return r.Marshal, nil
	}},
	{"SegSetupResp", func(data []byte) (func() []byte, error) {
		r, err := UnmarshalSegSetupResp(data)
		if err != nil {
			return nil, err
		}
		return r.Marshal, nil
	}},
	{"SegActivateReq", func(data []byte) (func() []byte, error) {
		r, err := UnmarshalSegActivateReq(data)
		if err != nil {
			return nil, err
		}
		return r.Marshal, nil
	}},
	{"DownSegReq", func(data []byte) (func() []byte, error) {
		r, err := UnmarshalDownSegReq(data)
		if err != nil {
			return nil, err
		}
		return r.Marshal, nil
	}},
}

// FuzzSegRCodec fuzzes the SegR decoders — tags 1/2, their response, 3 and
// 6 (ROADMAP robustness (a)). No input panics. A decoder sizes nothing by a
// count the bytes that remain cannot back, so what it allocates is bounded
// by the message's length. What it accepts re-encodes to exactly the bytes it
// was decoded from: a hop authenticates the fields it acts on only if no
// second encoding of them exists.
func FuzzSegRCodec(f *testing.F) {
	path := []PathHop{{IA: ia(1, 11), Eg: 1}, {IA: ia(1, 2), In: 2, Eg: 3}, {IA: ia(1, 1), In: 4}}
	macs := make([][cryptoutil.MACSize]byte, len(path))
	macs[1][0] = 0xaa
	id := reservation.ID{SrcAS: ia(1, 11), Num: 7}
	setup := &SegSetupReq{ID: id, SegType: segment.Up, Path: path, MinKbps: 10, MaxKbps: 1000,
		ExpT: t0, Ver: 1, Macs: macs, AccumKbps: 900}
	renew := *setup
	renew.Renewal, renew.Ver = true, 2
	for _, msg := range [][]byte{
		setup.Marshal(),
		renew.Marshal(),
		(&SegSetupResp{FinalKbps: 900, Tokens: make([][packet.HVFLen]byte, len(path))}).Marshal(),
		(&SegSetupResp{Refusal: RefusedBandwidth, FailedAt: 2}).Marshal(),
		(&SegActivateReq{ID: id, Ver: 2, Path: path, Macs: macs}).Marshal(),
		(&DownSegReq{Requester: ia(2, 11), Seg: path, MinKbps: 1, MaxKbps: 2}).Marshal(),
	} {
		f.Add(msg)
		f.Add(append(bytes.Clone(msg), 0)) // a trailing byte: each decoder used to accept it
	}
	// The flag disagreeing with the tag, and a flag of 2: accepted before, and
	// re-encoded to other bytes.
	flagAt := 1 + idLen + 1
	mismatch := setup.Marshal()
	mismatch[flagAt] = 1
	f.Add(mismatch)
	two := renew.Marshal()
	two[flagAt] = 2
	f.Add(two)
	// Counts no remaining bytes back: 32 hops or MACs in a few bytes.
	f.Add([]byte{tagSegActivate, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 32})
	f.Add([]byte{tagDownReq, 0, 0, 0, 0, 0, 0, 0, 1, 0, 32, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range segrCodecs {
			var marshal func() []byte
			var err error
			got, counted := allocatedBy(func() { marshal, err = c.decode(data) })
			if bound := 256 + 4*uint64(len(data)); counted && got > bound {
				t.Fatalf("%s: a %d-byte message made the decoder allocate %d bytes (bound %d)", c.name, len(data), got, bound)
			}
			if err != nil {
				continue
			}
			if enc := marshal(); !bytes.Equal(enc, data) {
				t.Fatalf("%s re-encodes to other bytes:\n%x\n%x", c.name, data, enc)
			}
		}
	})
}
