// wire_test.go — the control responses as committed bytes: one golden per
// response kind and outcome under testdata/wire, built from fixed values, so
// that an encoder that moves by one byte fails a named test. Regenerate with
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

// TestWireGoldens: every golden response encodes to its committed bytes, and
// the committed bytes decode to a message that encodes to them again.
func TestWireGoldens(t *testing.T) {
	if cryptoutil.KeySize != 16 || cryptoutil.SealOverhead != 28 {
		t.Fatalf("σ %d B, seal overhead %d B: the goldens assume 16 and 28", cryptoutil.KeySize, cryptoutil.SealOverhead)
	}
	for name, msg := range wireGoldens() {
		t.Run(name, func(t *testing.T) {
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
			fresh := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wireMsg)
			if err := fresh.unmarshal(want); err != nil {
				t.Fatalf("golden does not decode: %v", err)
			}
			if again := fresh.Marshal(); !bytes.Equal(again, want) {
				t.Errorf("golden decodes to a message that encodes to\n%s", hexLines(again))
			}
		})
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
