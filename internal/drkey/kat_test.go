package drkey

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/topology"
)

// TestPRFKnownAnswers holds the DRKey derivations to fixed-key vectors that
// the standard library's AES computed (testdata/kat.hex): the secret value
// SV_A = PRF_master("sv" ‖ epoch) and the level-1 key K_{A→B} = PRF_SV(B ‖
// epoch), in whichever build, AES-NI or purego, the test runs.
func TestPRFKnownAnswers(t *testing.T) {
	text, err := os.ReadFile("testdata/kat.hex")
	if err != nil {
		t.Fatal(err)
	}
	kat := map[string][]byte{}
	for _, line := range strings.Split(string(text), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if kat[f[0]], err = hex.DecodeString(f[1]); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		}
	}
	u32 := func(name string) uint32 { return binary.BigEndian.Uint32(kat[name]) }
	var master cryptoutil.Key
	copy(master[:], kat["master"])
	e := NewEngine(topology.MustIA(1, 0xff0000000110), master, u32("epochs"))
	sv, ep := e.SecretValue(u32("t"))
	if !bytes.Equal(sv[:], kat["sv"]) || ep.Begin != binary.BigEndian.Uint32(kat["svin"][2:]) {
		t.Errorf("SV_A = %x in epoch %v, want %x from %x", sv, ep, kat["sv"], kat["svin"])
	}
	k, _ := e.Level1(topology.IA(binary.BigEndian.Uint64(kat["dst"])), u32("t"))
	if !bytes.Equal(k[:], kat["level1"]) {
		t.Errorf("K_{A→B} = %x, want %x", k, kat["level1"])
	}
}
