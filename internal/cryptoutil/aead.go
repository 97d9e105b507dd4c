package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
)

// AEAD helpers for the control plane: hop authenticators are returned to the
// source AS "over a channel secured through authenticated encryption with
// associated data" (Eq. 5). AES-GCM under a DRKey-derived key, with the
// nonce prepended to the ciphertext.

// NonceSize is the AEAD nonce length; SealOverhead is how much longer a
// sealed message (nonce ‖ ciphertext ‖ tag) is than its plaintext.
const (
	NonceSize    = 12
	SealOverhead = NonceSize + 16
)

// ErrAEADOpen is returned when decryption or authentication fails.
var ErrAEADOpen = errors.New("cryptoutil: AEAD open failed")

// Sealer is AES-GCM bound to one key. Building it costs an AES key expansion
// and a GHASH table — several times the cost of sealing a 16-byte hop
// authenticator — so anything that seals or opens more than once under a key
// (a renewal wave, a CServ's per-source-AS key) builds one and keeps it.
// A Sealer is stateless after construction and safe for concurrent use.
//
// A σ (16 bytes, with at most 16 bytes of associated data) is sealed and
// opened by the one-block kernel where the build and the CPU have one (one):
// two AES blocks and one GHASH reduction in one call. Every other length runs
// crypto/cipher's GCM, which is also the kernel's oracle.
type Sealer struct {
	aead cipher.AEAD
	one  bool
	g    gcmKey
}

// gcmKey is the one-block kernel's key: the AES schedule, and H³, H² and H in
// the kernel's form, each followed by its Karatsuba half.
type gcmKey struct {
	ks AESSchedule
	h  [6][16]byte
}

// NewSealer builds the Sealer for key. It panics on error, which for a
// 16-byte key cannot happen.
func NewSealer(key Key) *Sealer {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	s := &Sealer{aead: aead, one: useGCMOne}
	if s.one {
		ExpandAES128(&s.g.ks, &key)
		gcmInitAESNI(&s.g)
	}
	return s
}

// RandomNonces fills b with fresh nonce material for SealTo, in one read of
// the system's random source however many nonces b holds.
func RandomNonces(b []byte) error {
	_, err := io.ReadFull(rand.Reader, b)
	return err
}

// SealTo appends nonce ‖ ciphertext to dst and returns the extended slice;
// with sufficient capacity in dst it does not allocate. nonce is NonceSize
// bytes from RandomNonces and must never be used twice under one key.
func (s *Sealer) SealTo(dst, nonce, plaintext, ad []byte) []byte {
	if s.one && len(plaintext) == oneBlock && len(ad) <= oneBlock {
		return s.g.sealOne(dst, nonce, plaintext, ad)
	}
	dst = append(dst, nonce[:NonceSize]...)
	return s.aead.Seal(dst, dst[len(dst)-NonceSize:], plaintext, ad)
}

// Seal encrypts plaintext with associated data ad under a fresh random
// nonce, returning nonce ‖ ciphertext.
func (s *Sealer) Seal(plaintext, ad []byte) ([]byte, error) {
	out := make([]byte, NonceSize, len(plaintext)+SealOverhead)
	if err := RandomNonces(out); err != nil {
		return nil, err
	}
	return s.aead.Seal(out, out, plaintext, ad), nil
}

// OpenTo decrypts a sealed message, appending the plaintext to dst (which
// must not overlap sealed).
func (s *Sealer) OpenTo(dst, sealed, ad []byte) ([]byte, error) {
	if len(sealed) < NonceSize {
		return nil, fmt.Errorf("%w: too short", ErrAEADOpen)
	}
	if s.one && len(sealed) == NonceSize+2*oneBlock && len(ad) <= oneBlock {
		return s.g.openOne(dst, sealed, ad)
	}
	pt, err := s.aead.Open(dst, sealed[:NonceSize], sealed[NonceSize:], ad)
	if err != nil {
		return nil, ErrAEADOpen
	}
	return pt, nil
}

// oneBlock is the plaintext the kernel seals and the most associated data it
// takes: one AES block.
const oneBlock = 16

// sealOne is SealTo on the kernel.
//
//colibri:nomalloc
func (g *gcmKey) sealOne(dst, nonce, plaintext, ad []byte) []byte {
	var j0, a [oneBlock]byte
	copy(j0[:], nonce[:NonceSize])
	j0[oneBlock-1] = 1
	copy(a[:], ad)
	n := len(dst) + NonceSize
	dst = append(append(dst, nonce[:NonceSize]...), make([]byte, 2*oneBlock)...)
	gcmOneAESNI(g, &j0, &a, uint64(len(ad)), (*[oneBlock]byte)(plaintext), (*[oneBlock]byte)(dst[n:]), (*[oneBlock]byte)(dst[n+oneBlock:]), true)
	return dst
}

// openOne is OpenTo on the kernel: the tag is compared in constant time, and
// nothing is appended to dst unless it matches.
//
//colibri:nomalloc
func (g *gcmKey) openOne(dst, sealed, ad []byte) ([]byte, error) {
	var j0, a, pt, tag [oneBlock]byte
	copy(j0[:], sealed[:NonceSize])
	j0[oneBlock-1] = 1
	copy(a[:], ad)
	gcmOneAESNI(g, &j0, &a, uint64(len(ad)), (*[oneBlock]byte)(sealed[NonceSize:]), &pt, &tag, false)
	if !ConstantTimeEqual(tag[:], sealed[NonceSize+oneBlock:]) {
		return nil, ErrAEADOpen
	}
	return append(dst, pt[:]...), nil
}

// Seal is the one-shot form of Sealer.Seal: it pays the key setup per call.
func Seal(key Key, plaintext, ad []byte) ([]byte, error) {
	return NewSealer(key).Seal(plaintext, ad)
}

// Open is the one-shot form of Sealer.OpenTo.
func Open(key Key, sealed, ad []byte) ([]byte, error) {
	return NewSealer(key).OpenTo(nil, sealed, ad)
}
