package cryptoutil

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"math/rand/v2"
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

// checkSealOneBlock seals pt under key and nonce with ad through a Sealer —
// the one-block kernel, where the build and CPU have one — and requires the
// bytes crypto/cipher's GCM seals, the plaintext back from OpenTo, and
// ErrAEADOpen for every byte of the sealed message or of ad tampered with.
func checkSealOneBlock(t *testing.T, key Key, nonce, pt, ad []byte) {
	t.Helper()
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	want := gcm.Seal(append([]byte(nil), nonce...), nonce, pt, ad)
	sl := NewSealer(key)
	sealed := sl.SealTo(nil, nonce, pt, ad)
	if !bytes.Equal(sealed, want) {
		t.Fatalf("key %x nonce %x σ %x ad %x: sealed %x, crypto/cipher %x", key, nonce, pt, ad, sealed, want)
	}
	if got, err := sl.OpenTo([]byte{0xee}, sealed, ad); err != nil || !bytes.Equal(got, append([]byte{0xee}, pt...)) {
		t.Fatalf("key %x nonce %x ad %x: opened %x, %v; want %x", key, nonce, ad, got, err, pt)
	}
	for i := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 1 << (i % 8)
		if got, err := sl.OpenTo(nil, bad, ad); !errors.Is(err, ErrAEADOpen) || got != nil {
			t.Fatalf("byte %d of the sealed σ tampered with: opened %x, %v", i, got, err)
		}
	}
	for i := range ad {
		bad := append([]byte(nil), ad...)
		bad[i] ^= 0x80
		if got, err := sl.OpenTo(nil, sealed, bad); !errors.Is(err, ErrAEADOpen) || got != nil {
			t.Fatalf("byte %d of the associated data tampered with: opened %x, %v", i, got, err)
		}
	}
	if len(ad) < oneBlock {
		if got, err := sl.OpenTo(nil, sealed, append(ad[:len(ad):len(ad)], 0)); !errors.Is(err, ErrAEADOpen) {
			t.Fatalf("associated data extended by a zero byte: opened %x, %v", got, err)
		}
	}
}

// TestSealOneBlockMatchesCipher runs checkSealOneBlock over every length of
// associated data the kernel takes, 0 to 16 bytes, under random keys,
// nonces and σs.
func TestSealOneBlockMatchesCipher(t *testing.T) {
	rnd := rand.New(rand.NewPCG(1, 2))
	for n := range 200 {
		var key Key
		nonce, pt, ad := make([]byte, NonceSize), make([]byte, oneBlock), make([]byte, n%(oneBlock+1))
		for _, b := range [][]byte{key[:], nonce, pt, ad} {
			for i := range b {
				b[i] = byte(rnd.Uint32())
			}
		}
		checkSealOneBlock(t, key, nonce, pt, ad)
	}
}

// FuzzSealOneBlock: for any key, nonce, σ and 0 to 16 bytes of associated
// data, a Sealer seals the bytes crypto/cipher's GCM does, opens them, and
// refuses every tampered byte.
func FuzzSealOneBlock(f *testing.F) {
	f.Add(make([]byte, KeySize), make([]byte, NonceSize), make([]byte, oneBlock), []byte{})
	f.Add([]byte("0123456789abcdef"), []byte("nonce-twelve"), []byte("sixteen byte sig"), []byte("res-id|hop-3"))
	f.Add(bytes.Repeat([]byte{0xff}, KeySize), bytes.Repeat([]byte{0xff}, NonceSize), bytes.Repeat([]byte{0xff}, oneBlock), bytes.Repeat([]byte{0xff}, oneBlock))
	f.Fuzz(func(t *testing.T, key, nonce, pt, ad []byte) {
		// Every input is sized to what the kernel takes: key, nonce and σ
		// zero-padded or cut, the associated data cut to one block.
		var k Key
		copy(k[:], key)
		n, p := make([]byte, NonceSize), make([]byte, oneBlock)
		copy(n, nonce)
		copy(p, pt)
		checkSealOneBlock(t, k, n, p, ad[:min(len(ad), oneBlock)])
	})
}

// BenchmarkSealOneBlock seals and opens a σ with 13 bytes of associated data,
// a hop's EER authenticator, on the one-block kernel and on crypto/cipher's
// GCM.
func BenchmarkSealOneBlock(b *testing.B) {
	pt, ad := make([]byte, oneBlock), make([]byte, 13)
	nonce := make([]byte, NonceSize)
	for _, kernel := range []bool{true, false} {
		sl := NewSealer(Key{1})
		sl.one = sl.one && kernel
		name := map[bool]string{true: "kernel", false: "cipher"}[sl.one]
		buf := make([]byte, 0, oneBlock+SealOverhead)
		b.Run("seal/"+name, func(b *testing.B) {
			for range b.N {
				nonce[0]++
				buf = sl.SealTo(buf[:0], nonce, pt, ad)
			}
		})
		sealed := sl.SealTo(nil, nonce, pt, ad)
		out := make([]byte, 0, oneBlock)
		b.Run("open/"+name, func(b *testing.B) {
			for range b.N {
				if _, err := sl.OpenTo(out, sealed, ad); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
