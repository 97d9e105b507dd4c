// wire_test.go — the control messages as committed bytes: one golden per
// response kind and outcome, and one per request kind, under testdata/wire,
// built from fixed keys, IDs and times, so that an encoder or a decoder that
// moves by one byte fails a named test. Regenerate with
// go test -run TestWireGoldens -update ./internal/cserv.
package cserv

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

var update = flag.Bool("update", false, "rewrite the wire goldens under testdata/wire")

// fill returns n bytes counting up from b.
func fill(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b + byte(i)
	}
	return out
}

// wireMsg is a control response.
type wireMsg interface {
	Marshal() []byte
	unmarshal([]byte) error
}

// wireReq is a control request and the decoder a hop parses it with.
type wireReq struct {
	msg    interface{ Marshal() []byte }
	decode func([]byte) (interface{ Marshal() []byte }, error)
}

// decodeAs adapts a request decoder to wireReq.decode.
func decodeAs[T interface{ Marshal() []byte }](decode func([]byte) (T, error)) func([]byte) (interface{ Marshal() []byte }, error) {
	return func(b []byte) (interface{ Marshal() []byte }, error) { return decode(b) }
}

// goldenMacs returns the MACs of body towards n hops under the fixed keys
// 0x40…, 0x50…, and so on.
func goldenMacs(body []byte, n int) [][cryptoutil.MACSize]byte {
	macs := make([][cryptoutil.MACSize]byte, n)
	for h := range macs {
		c, err := cryptoutil.NewCMAC(cryptoutil.Key(fill(byte(0x40+0x10*h), cryptoutil.KeySize)))
		if err != nil {
			panic(err)
		}
		c.SumInto(&macs[h], body)
	}
	return macs
}

// requestGoldens are the requests of testdata/wire, by file name: an EER setup
// and renewal over a three-SegR chain of five hops, a two-item renewal wave
// over it, a SegR setup and renewal, an activation and a down request.
func requestGoldens() map[string]wireReq {
	src := topology.MustIA(1, 11)
	path := []PathHop{
		{IA: src, Eg: 1}, {IA: topology.MustIA(1, 1), In: 2, Eg: 3}, {IA: topology.MustIA(1, 2), In: 4, Eg: 5},
		{IA: topology.MustIA(2, 1), In: 6, Eg: 7}, {IA: topology.MustIA(2, 22), In: 8},
	}
	segIDs := []reservation.ID{{SrcAS: src, Num: 1}, {SrcAS: topology.MustIA(1, 1), Num: 2}, {SrcAS: topology.MustIA(2, 1), Num: 3}}
	splits := []uint8{1, 3}
	const expT = 1_700_000_016
	ee := func(renewal bool) *EESetupReq {
		r := &EESetupReq{ID: reservation.ID{SrcAS: src, Num: 42}, SegIDs: segIDs, Splits: splits, Path: path,
			BwKbps: 8_000, ExpT: expT, Ver: 1, SrcHost: 0x0a000001, DstHost: 0x0a000063, AccumKbps: 6_000}
		if renewal {
			r.Renewal, r.Ver, r.AccumKbps = true, 2, 8_000
		}
		r.Macs = goldenMacs(r.Body(), len(path))
		return r
	}
	wave := &EEBatchRenewReq{SegIDs: segIDs, Splits: splits, Path: path,
		Items: []EEBatchItem{
			{ID: reservation.ID{SrcAS: src, Num: 42}, Ver: 3, BwKbps: 8_000, ExpT: expT + 16, SrcHost: 0x0a000001, DstHost: 0x0a000063},
			{ID: reservation.ID{SrcAS: src, Num: 43}, Ver: 7, BwKbps: 2_000, ExpT: expT + 16, SrcHost: 0x0a000002, DstHost: 0x0a000064},
		},
		Accums: []uint64{8_000, 0}, Status: []Refusal{Granted, RefusedThrottled}}
	wave.Macs = goldenMacs(wave.Body(), len(path))
	seg := func(renewal bool) *SegSetupReq {
		r := &SegSetupReq{ID: reservation.ID{SrcAS: src, Num: 1}, SegType: segment.Up, Path: path[:3],
			MinKbps: 1_000, MaxKbps: 100_000, ExpT: expT + 300, Ver: 1, AccumKbps: 80_000}
		if renewal {
			r.Renewal, r.Ver = true, 2
		}
		r.Macs = goldenMacs(r.Body(), len(r.Path))
		return r
	}
	act := &SegActivateReq{ID: reservation.ID{SrcAS: src, Num: 1}, Ver: 2, Path: path[:3]}
	act.Macs = goldenMacs(act.Body(), len(act.Path))
	down := &DownSegReq{Requester: path[4].IA, Seg: path[3:], MinKbps: 1_000, MaxKbps: 50_000}
	down.Mac = goldenMacs(down.Body(), 1)[0]
	eeDecode := decodeAs(UnmarshalEESetupReq)
	segDecode := decodeAs(UnmarshalSegSetupReq)
	return map[string]wireReq{
		"ee_setup_req":       {ee(false), eeDecode},
		"ee_renew_req":       {ee(true), eeDecode},
		"ee_batch_renew_req": {wave, decodeAs(UnmarshalEEBatchRenewReq)},
		"seg_setup_req":      {seg(false), segDecode},
		"seg_renew_req":      {seg(true), segDecode},
		"seg_activate_req":   {act, decodeAs(UnmarshalSegActivateReq)},
		"down_seg_req":       {down, decodeAs(UnmarshalDownSegReq)},
	}
}

// wireGoldens are the messages of testdata/wire, by file name.
func wireGoldens() map[string]wireMsg {
	var tokens [][packet.HVFLen]byte
	for h := range 3 {
		tokens = append(tokens, [packet.HVFLen]byte(fill(byte(0x10*(h+1)), packet.HVFLen)))
	}
	blob := blobLen(2)
	return map[string]wireMsg{
		"seg_setup_resp_grant":   &SegSetupResp{FinalKbps: 100_000, Tokens: tokens},
		"seg_setup_resp_refusal": &SegSetupResp{Refusal: RefusedBandwidth, FailedAt: 2},
		"ee_setup_resp_grant": &EESetupResp{FinalKbps: 8_000, EncAuths: [][]byte{
			fill(0x10, sealedAuthLen), fill(0x20, sealedAuthLen), fill(0x30, sealedAuthLen)}},
		"ee_setup_resp_refusal": &EESetupResp{Refusal: RefusedVeto, FailedAt: 3},
		"ee_batch_renew_resp_grant": &EEBatchRenewResp{
			Granted: []uint64{8_000, 0, 5_000}, Status: []Refusal{Granted, RefusedBandwidth, Granted},
			Blobs: [][]byte{fill(0x10, blob), fill(0x40, blob), fill(0x70, blob)}},
		"ee_batch_renew_resp_refusal": &EEBatchRenewResp{Refusal: RefusedMalformed, FailedAt: 1},
	}
}

// TestWireGoldens: every golden message encodes to its committed bytes, and
// the committed bytes decode — a request as a hop decodes it — to a message
// that encodes to them again.
func TestWireGoldens(t *testing.T) {
	if cryptoutil.KeySize != 16 || cryptoutil.SealOverhead != 28 {
		t.Fatalf("σ %d B, seal overhead %d B: the goldens assume 16 and 28", cryptoutil.KeySize, cryptoutil.SealOverhead)
	}
	for name, msg := range wireGoldens() {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name, msg, func(b []byte) (interface{ Marshal() []byte }, error) {
				fresh := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wireMsg)
				return fresh, fresh.unmarshal(b)
			})
		})
	}
	for name, req := range requestGoldens() {
		t.Run(name, func(t *testing.T) { checkGolden(t, name, req.msg, req.decode) })
	}
}

// checkGolden checks msg against testdata/wire/name.hex, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name string, msg interface{ Marshal() []byte }, decode func([]byte) (interface{ Marshal() []byte }, error)) {
	path := filepath.Join("testdata", "wire", name+".hex")
	got := msg.Marshal()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hexLines(got)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("encodes to\n%s\nwant (%s)\n%s", hexLines(got), path, hexLines(want))
	}
	fresh, err := decode(want)
	if err != nil {
		t.Fatalf("golden does not decode: %v", err)
	}
	if again := fresh.Marshal(); !bytes.Equal(again, want) {
		t.Errorf("golden decodes to a message that encodes to\n%s", hexLines(again))
	}
}

// hexLines renders b as hex, 16 bytes a line.
func hexLines(b []byte) string {
	var s strings.Builder
	for len(b) > 0 {
		n := min(16, len(b))
		s.WriteString(hex.EncodeToString(b[:n]) + "\n")
		b = b[n:]
	}
	return s.String()
}

// TestRefusalCodec: every code of the vocabulary round-trips through each
// response, as its refusal and as a wave item's status; one past the last code
// does not decode, in either place.
func TestRefusalCodec(t *testing.T) {
	blob := make([]byte, blobLen(1))
	for code := Granted; code <= numRefusals; code++ {
		want := error(nil)
		if !code.known() {
			want = ErrNotCanonical
		}
		for name, msg := range map[string]wireMsg{
			"SegSetupResp":     &SegSetupResp{Refusal: code, FailedAt: 3},
			"EESetupResp":      &EESetupResp{Refusal: code, FailedAt: 3},
			"EEBatchRenewResp": &EEBatchRenewResp{Refusal: code, FailedAt: 3},
			"EEBatchRenewResp item": &EEBatchRenewResp{Granted: []uint64{7, 0},
				Status: []Refusal{Granted, code}, Blobs: [][]byte{blob, blob}},
		} {
			if code == Granted && name == "EEBatchRenewResp item" {
				continue // a second live item wants longer blobs
			}
			enc := msg.Marshal()
			fresh := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wireMsg)
			if err := fresh.unmarshal(enc); !errors.Is(err, want) {
				t.Errorf("%s with %v: err = %v, want %v", name, code, err, want)
			} else if err == nil && !reflect.DeepEqual(fresh, msg) {
				t.Errorf("%s with %v decodes to %+v", name, code, fresh)
			}
		}
	}
	// The request tail carries item statuses too.
	req := &EEBatchRenewReq{Path: make([]PathHop, 2), Items: make([]EEBatchItem, 1),
		Macs: make([][cryptoutil.MACSize]byte, 2), Accums: []uint64{1}, Status: []Refusal{numRefusals}}
	if _, err := UnmarshalEEBatchRenewReq(req.Marshal()); !errors.Is(err, ErrNotCanonical) {
		t.Errorf("a wave whose item status is %v: err = %v, want ErrNotCanonical", req.Status[0], err)
	}
}
