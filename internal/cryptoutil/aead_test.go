package cryptoutil

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestSealOpenRoundTrip(t *testing.T) {
	key := Key{1, 2, 3}
	pt := []byte("hop authenticator payload")
	ad := []byte("res-id|hop-3")
	sealed, err := Seal(key, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(key, sealed, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Errorf("roundtrip: %q", got)
	}
}

func TestSealRandomizesNonce(t *testing.T) {
	key := Key{9}
	a, _ := Seal(key, []byte("x"), nil)
	b, _ := Seal(key, []byte("x"), nil)
	if bytes.Equal(a, b) {
		t.Error("two seals of the same plaintext are identical — nonce reuse")
	}
	// Both still open.
	for _, sealed := range [][]byte{a, b} {
		if _, err := Open(key, sealed, nil); err != nil {
			t.Error(err)
		}
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	key := Key{7}
	ad := []byte("ad")
	sealed, _ := Seal(key, []byte("secret"), ad)

	for i := range sealed {
		cp := append([]byte(nil), sealed...)
		cp[i] ^= 0x80
		if _, err := Open(key, cp, ad); !errors.Is(err, ErrAEADOpen) {
			t.Fatalf("bit flip at %d accepted (err=%v)", i, err)
		}
	}
	// Wrong associated data.
	if _, err := Open(key, sealed, []byte("other")); !errors.Is(err, ErrAEADOpen) {
		t.Errorf("wrong AD accepted: %v", err)
	}
	// Wrong key.
	if _, err := Open(Key{8}, sealed, ad); !errors.Is(err, ErrAEADOpen) {
		t.Errorf("wrong key accepted: %v", err)
	}
	// Too short.
	if _, err := Open(key, sealed[:8], ad); !errors.Is(err, ErrAEADOpen) {
		t.Errorf("short input accepted: %v", err)
	}
}

func TestSealOpenQuick(t *testing.T) {
	key := Key{0xAB}
	f := func(pt, ad []byte) bool {
		sealed, err := Seal(key, pt, ad)
		if err != nil {
			return false
		}
		got, err := Open(key, sealed, ad)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSealerInterop checks that a reused Sealer and the one-shot Seal/Open
// wrappers are the same construction: each opens what the other sealed,
// whichever way the nonce was supplied.
func TestSealerInterop(t *testing.T) {
	key := Key{4, 2}
	sl := NewSealer(key)
	pt, ad := []byte("sixteen byte sig"), []byte("res|hop")

	oneShot, err := Seal(key, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := sl.Seal(pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, NonceSize)
	if err := RandomNonces(nonce); err != nil {
		t.Fatal(err)
	}
	prefix := []byte("kept")
	appended := sl.SealTo(append([]byte(nil), prefix...), nonce, pt, ad)
	if !bytes.HasPrefix(appended, prefix) || len(appended) != len(prefix)+len(pt)+SealOverhead {
		t.Fatalf("SealTo output: %d bytes, prefix %q", len(appended), appended[:len(prefix)])
	}
	if !bytes.Equal(appended[len(prefix):len(prefix)+NonceSize], nonce) {
		t.Error("SealTo did not prepend the caller's nonce")
	}
	for name, sealed := range map[string][]byte{"Seal": oneShot, "Sealer.Seal": reused, "Sealer.SealTo": appended[len(prefix):]} {
		if len(sealed) != len(pt)+SealOverhead {
			t.Errorf("%s: %d bytes, want %d", name, len(sealed), len(pt)+SealOverhead)
		}
		if got, err := Open(key, sealed, ad); err != nil || !bytes.Equal(got, pt) {
			t.Errorf("Open(%s output): %q, %v", name, got, err)
		}
		got, err := sl.OpenTo([]byte("x"), sealed, ad)
		if err != nil || !bytes.Equal(got, append([]byte("x"), pt...)) {
			t.Errorf("Sealer.OpenTo(%s output): %q, %v", name, got, err)
		}
	}
}

// TestSealerRejects: the reused Sealer rejects what the one-shot Open does.
func TestSealerRejects(t *testing.T) {
	key, ad := Key{7}, []byte("ad")
	sl := NewSealer(key)
	sealed, _ := sl.Seal([]byte("secret"), ad)
	for name, open := range map[string]func() ([]byte, error){
		"wrong key": func() ([]byte, error) { return NewSealer(Key{8}).OpenTo(nil, sealed, ad) },
		"wrong AD":  func() ([]byte, error) { return sl.OpenTo(nil, sealed, []byte("other")) },
		"truncated": func() ([]byte, error) { return sl.OpenTo(nil, sealed[:len(sealed)-1], ad) },
		"too short": func() ([]byte, error) { return sl.OpenTo(nil, sealed[:NonceSize-1], ad) },
		"empty":     func() ([]byte, error) { return sl.OpenTo(nil, nil, ad) },
	} {
		if pt, err := open(); !errors.Is(err, ErrAEADOpen) {
			t.Errorf("%s accepted: %q, %v", name, pt, err)
		}
	}
}

// TestSealToNoAlloc pins what a wave relies on: with a sealer in hand and
// room in the destination, sealing and opening allocate nothing.
func TestSealToNoAlloc(t *testing.T) {
	sl := NewSealer(Key{1})
	pt, ad := make([]byte, KeySize), make([]byte, 13)
	nonce := make([]byte, NonceSize)
	buf := make([]byte, 0, KeySize+SealOverhead)
	out := make([]byte, 0, KeySize)
	if avg := testing.AllocsPerRun(100, func() {
		nonce[0]++
		sealed := sl.SealTo(buf, nonce, pt, ad)
		if _, err := sl.OpenTo(out, sealed, ad); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("SealTo+OpenTo allocate %.1f times per item, want 0", avg)
	}
}
