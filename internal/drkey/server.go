package drkey

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"

	"colibri/internal/cryptoutil"
	"colibri/internal/topology"
)

// The slow-side fetch protocol: AS B requests K_{A→B} from A's key server.
//
//	Request:  B's IA ‖ B's ephemeral X25519 public key ‖ time
//	Response: epoch ‖ X25519 server public key ‖ nonce ‖
//	          AES-GCM_{shared}(K_{A→B}) ‖ ed25519 signature by A
//
// The shared AES-GCM key is derived from the X25519 agreement, so the
// level-1 key never travels in the clear; the ed25519 signature (verified
// against A's public key from the trust store, standing in for SCION's
// control-plane PKI) authenticates the response. This mirrors Eq. (5)'s
// requirement that keys move only over channels secured with AEAD.

// Wire sizes of the fixed-layout fetch messages.
const (
	reqLen  = 8 + 32 + 4
	resLen  = 8 + 32 + 12 + (16 + 16) + ed25519.SignatureSize
	nonceSz = 12
)

// Errors returned by the fetch protocol.
var (
	ErrBadRequest  = errors.New("drkey: malformed request")
	ErrBadResponse = errors.New("drkey: malformed response")
	ErrBadSig      = errors.New("drkey: response signature invalid")
)

// Identity is the long-term key material of an AS's key server.
type Identity struct {
	IA      topology.IA
	Signer  ed25519.PrivateKey
	Public  ed25519.PublicKey
	ecdhKey *ecdh.PrivateKey
}

// NewIdentity generates fresh long-term keys for an AS.
func NewIdentity(ia topology.IA) *Identity {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		panic(err)
	}
	ek, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		panic(err)
	}
	return &Identity{IA: ia, Signer: priv, Public: pub, ecdhKey: ek}
}

// TrustStore maps ASes to their ed25519 public keys; it stands in for the
// ISD trust roots of the underlying architecture.
type TrustStore struct {
	keys map[topology.IA]ed25519.PublicKey
}

// NewTrustStore builds a trust store from identities.
func NewTrustStore(ids ...*Identity) *TrustStore {
	ts := &TrustStore{keys: make(map[topology.IA]ed25519.PublicKey, len(ids))}
	for _, id := range ids {
		ts.keys[id.IA] = id.Public
	}
	return ts
}

// PublicKey returns the registered key for the AS, or nil.
func (ts *TrustStore) PublicKey(ia topology.IA) ed25519.PublicKey { return ts.keys[ia] }

// Server answers level-1 key requests for one AS.
type Server struct {
	engine *Engine
	id     *Identity
}

// NewServer builds a key server around the engine and identity (which must
// belong to the same AS).
func NewServer(engine *Engine, id *Identity) *Server {
	if engine.IA() != id.IA {
		panic("drkey: engine and identity IA mismatch")
	}
	return &Server{engine: engine, id: id}
}

// MarshalRequest encodes a fetch request from requester for time t using the
// given ephemeral key.
func MarshalRequest(requester topology.IA, eph *ecdh.PrivateKey, t uint32) []byte {
	buf := make([]byte, reqLen)
	binary.BigEndian.PutUint64(buf[0:8], uint64(requester))
	copy(buf[8:40], eph.PublicKey().Bytes())
	binary.BigEndian.PutUint32(buf[40:44], t)
	return buf
}

// Handle processes a marshaled request and returns the marshaled response.
// The requester IA is taken from the request; in a deployment the transport
// would authenticate it, here the signature binds the key to that IA either
// way (a spoofing requester only obtains a key derived *for the spoofed AS*,
// which is useless without that AS's traffic being attributable to it).
func (s *Server) Handle(req []byte) ([]byte, error) {
	if len(req) != reqLen {
		return nil, ErrBadRequest
	}
	requester := topology.IA(binary.BigEndian.Uint64(req[0:8]))
	clientPub, err := ecdh.X25519().NewPublicKey(req[8:40])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	t := binary.BigEndian.Uint32(req[40:44])

	key, ep := s.engine.Level1(requester, t)

	shared, err := s.id.ecdhKey.ECDH(clientPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	aead, err := newAEAD(shared)
	if err != nil {
		return nil, err
	}
	res := make([]byte, 0, resLen)
	var hdr [8 + 32 + nonceSz]byte
	binary.BigEndian.PutUint32(hdr[0:4], ep.Begin)
	binary.BigEndian.PutUint32(hdr[4:8], ep.End)
	copy(hdr[8:40], s.id.ecdhKey.PublicKey().Bytes())
	if _, err := rand.Read(hdr[40 : 40+nonceSz]); err != nil {
		return nil, err
	}
	res = append(res, hdr[:]...)
	// Associated data binds ciphertext to (server AS, requester AS, epoch).
	ad := associatedData(s.engine.IA(), requester, ep)
	res = aead.Seal(res, hdr[40:40+nonceSz], key[:], ad)
	sig := ed25519.Sign(s.id.Signer, res)
	res = append(res, sig...)
	return res, nil
}

// Transport delivers a marshaled request to the key server of dst and
// returns its marshaled response. Implementations: in-process (tests), the
// netsim message fabric, or a real network client.
type Transport interface {
	QueryKeyServer(dst topology.IA, req []byte) ([]byte, error)
}

// Fetch obtains K_{src→requester} from src's key server via the transport,
// verifying the response signature against the trust store.
func Fetch(tr Transport, ts *TrustStore, src, requester topology.IA, t uint32) (cryptoutil.Key, Epoch, error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return cryptoutil.Key{}, Epoch{}, err
	}
	res, err := tr.QueryKeyServer(src, MarshalRequest(requester, eph, t))
	if err != nil {
		return cryptoutil.Key{}, Epoch{}, err
	}
	return openResponse(ts, src, requester, eph, res)
}

func openResponse(ts *TrustStore, src, requester topology.IA, eph *ecdh.PrivateKey, res []byte) (cryptoutil.Key, Epoch, error) {
	var zero cryptoutil.Key
	if len(res) != resLen {
		return zero, Epoch{}, ErrBadResponse
	}
	body, sig := res[:len(res)-ed25519.SignatureSize], res[len(res)-ed25519.SignatureSize:]
	pub := ts.PublicKey(src)
	if pub == nil || !ed25519.Verify(pub, body, sig) {
		return zero, Epoch{}, ErrBadSig
	}
	ep := Epoch{
		Begin: binary.BigEndian.Uint32(body[0:4]),
		End:   binary.BigEndian.Uint32(body[4:8]),
	}
	serverPub, err := ecdh.X25519().NewPublicKey(body[8:40])
	if err != nil {
		return zero, Epoch{}, fmt.Errorf("%w: %v", ErrBadResponse, err)
	}
	shared, err := eph.ECDH(serverPub)
	if err != nil {
		return zero, Epoch{}, fmt.Errorf("%w: %v", ErrBadResponse, err)
	}
	aead, err := newAEAD(shared)
	if err != nil {
		return zero, Epoch{}, err
	}
	nonce := body[40 : 40+nonceSz]
	ct := body[40+nonceSz:]
	pt, err := aead.Open(nil, nonce, ct, associatedData(src, requester, ep))
	if err != nil {
		return zero, Epoch{}, fmt.Errorf("%w: %v", ErrBadResponse, err)
	}
	var key cryptoutil.Key
	copy(key[:], pt)
	return key, ep, nil
}

func associatedData(server, requester topology.IA, ep Epoch) []byte {
	var ad [20]byte
	binary.BigEndian.PutUint64(ad[0:8], uint64(server))
	binary.BigEndian.PutUint64(ad[8:16], uint64(requester))
	binary.BigEndian.PutUint32(ad[16:20], ep.Begin)
	return ad[:]
}

func newAEAD(shared []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(shared[:16])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}
