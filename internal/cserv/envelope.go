// envelope.go — the one authentication envelope of every control message
// (§4.5, §5.3): one signer at the initiator (signPath), one verify-and-throttle
// at each hop before any state is touched (authHop, wireHop), and the hop tail
// the EER handlers share — the destination's veto, the forward whose failures
// are charged to the next hop, the σ seal and, at the initiator, its opening.
package cserv

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/topology"
)

// keyCrypto is the control-plane crypto bound to one level-1 DRKey key: the
// AEAD that seals and opens hop authenticators (Eq. 5) and the CMAC that
// authenticates requests (§4.5). Building either costs an AES key expansion,
// several times the work of one use, and the keys are constant for a DRKey
// epoch — so they are built once per key, not once per message or per item.
// Both are immutable once built, so a keyCrypto is shared without a lock; key,
// own, derived and used are the cache's, read and written under its lock only.
type keyCrypto struct {
	sealer *cryptoutil.Sealer
	cmac   *cryptoutil.CMAC
	key    cryptoutil.Key
	// own is the (source AS, epoch) this AS derived key for, when derived is
	// set: the entry's name in the cache's memo of K_{me→src}.
	own     ownKey
	derived bool
	used    bool
}

// ownKey names K_{me→src} for one of this AS's DRKey epochs, by its first
// second.
type ownKey struct {
	src   topology.IA
	epoch uint32
}

// verify reports whether mac, nil for none, is the source's MAC of body
// towards the AS that holds this key.
func (k *keyCrypto) verify(body []byte, mac *[cryptoutil.MACSize]byte) bool {
	if mac == nil {
		return false
	}
	var want [cryptoutil.MACSize]byte
	k.cmac.SumInto(&want, body)
	return cryptoutil.ConstantTimeEqual(want[:], mac[:])
}

// macOf returns macs[idx], nil past the last.
func macOf(macs [][cryptoutil.MACSize]byte, idx int) *[cryptoutil.MACSize]byte {
	if idx >= len(macs) {
		return nil
	}
	return &macs[idx]
}

// keyCacheSize bounds the per-service key cache.
const keyCacheSize = 64

// keyCache is a service's cache of control-plane crypto: at most keyCacheSize
// keys, indexed and in a ring. A request names its source AS before it is
// authenticated, so the keys asked for are under remote control; a full cache
// therefore evicts one entry by the clock rule — the hand sweeps the ring,
// clearing each entry's used mark, and evicts the first entry it finds
// unmarked. A key used again before the hand comes round — any key of honest
// traffic that recurs within some sixty insertions — stays, so keys an
// attacker names cost honest traffic at most one rebuild per keyCacheSize of
// them, and never the whole cache (emptying it did: every honest key, every
// time). Marks matter only once the cache is full, so a hit on a cache that is
// not — the honest steady state — is one lookup and touches no entry.
//
// own memoises the keys this AS derives itself, K_{me→src} per (source AS, own
// DRKey epoch). It is a second index into the same ring: an entry it names
// carries that name (keyCrypto.own), eviction drops the entry from both
// indexes, and so the memo never outgrows the ring. A hit is one lookup where
// deriving the key is a PRF under the DRKey engine's lock; at an epoch change
// the name changes, so the old epoch's key is never found for the new one.
type keyCache struct {
	mu    sync.Mutex
	index map[cryptoutil.Key]*keyCrypto
	own   map[ownKey]*keyCrypto
	ring  []*keyCrypto
	hand  int
}

// cryptoFor returns the cached crypto of a level-1 key, building it on first
// use. Keyed by the key itself, so a DRKey epoch change needs no invalidation.
func (s *Service) cryptoFor(key cryptoutil.Key) *keyCrypto {
	c := &s.keyCache
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(key)
}

// get is cryptoFor under the cache's lock.
func (c *keyCache) get(key cryptoutil.Key) *keyCrypto {
	if kc, ok := c.index[key]; ok {
		c.touch(kc)
		return kc
	}
	cmac, _ := cryptoutil.NewCMAC(key) // a Key has the one valid length
	kc := &keyCrypto{sealer: cryptoutil.NewSealer(key), cmac: cmac, key: key}
	if len(c.ring) < keyCacheSize {
		c.ring = append(c.ring, kc)
	} else {
		for c.ring[c.hand].used {
			c.ring[c.hand].used = false
			c.hand = (c.hand + 1) % keyCacheSize
		}
		old := c.ring[c.hand]
		delete(c.index, old.key)
		if old.derived {
			delete(c.own, old.own)
		}
		c.ring[c.hand] = kc
		c.hand = (c.hand + 1) % keyCacheSize
	}
	c.index[key] = kc
	return kc
}

// touch marks a hit on a full cache.
func (c *keyCache) touch(kc *keyCrypto) {
	if len(c.ring) == keyCacheSize && !kc.used {
		kc.used = true
	}
}

// ownCrypto returns the crypto of K_{me→src} for the DRKey epoch of now: the
// memoised entry, or the key derived and cached under its (src, epoch) name.
func (s *Service) ownCrypto(src topology.IA, now uint32) *keyCrypto {
	name := ownKey{src: src, epoch: s.engine.EpochAt(now).Begin}
	c := &s.keyCache
	c.mu.Lock()
	kc, ok := c.own[name]
	if ok {
		c.touch(kc)
	}
	c.mu.Unlock()
	if ok {
		return kc
	}
	key, _ := s.engine.Level1(src, now)
	c.mu.Lock()
	defer c.mu.Unlock()
	kc = c.get(key)
	kc.own, kc.derived = name, true
	c.own[name] = kc
	return kc
}

// hopKey returns the crypto of K_{ia→me}, the level-1 key an on-path AS shares
// with this (initiating) AS: this AS's own memoised derivation for itself,
// fetched from ia's key server and cached per epoch otherwise.
func (s *Service) hopKey(ia topology.IA, now uint32) (*keyCrypto, error) {
	if ia == s.ia {
		return s.ownCrypto(s.ia, now), nil
	}
	key, err := s.keys.Get(ia, now)
	if err != nil {
		return nil, err
	}
	return s.cryptoFor(key), nil
}

// signPath is the initiator's half of the envelope: it MACs body towards every
// AS of path into *macs (its capacity reused, its length set to the path's) and
// returns each hop's crypto, which opens what that hop seals (Eq. 5). Each key
// is fetched once per hop, not once per item, and the hop keys' chains over
// body run four abreast.
func (s *Service) signPath(path []PathHop, body []byte, macs *[][cryptoutil.MACSize]byte) (hops [packet.MaxHops]*keyCrypto, err error) {
	if len(path) > packet.MaxHops {
		return hops, fmt.Errorf("cserv: %d hops exceeds maximum", len(path))
	}
	now := s.clock()
	for i, h := range path {
		if hops[i], err = s.hopKey(h.IA, now); err != nil {
			return hops, err
		}
	}
	*macs = slices.Grow((*macs)[:0], len(path))[:len(path)]
	var lanes [cryptoutil.MaxLanes]*cryptoutil.CMAC
	for i := 0; i < len(path); i += len(lanes) {
		n := min(len(lanes), len(path)-i)
		for j := range n {
			lanes[j] = hops[i+j].cmac
		}
		cryptoutil.SumCMACs((*macs)[i:], lanes[:n], body)
	}
	return hops, nil
}

// authHop is the receiving half, the prologue of every handler: K_{me→src}
// from the key memo (ownCrypto), mac — src's MAC of body towards this AS, hop
// idx, nil for none — checked, and one token of src's per-second budget taken
// (a wave is one message and pays one). body is what the hop received, never a
// re-encoding of it. It returns src's crypto, which also seals what this AS
// hands back to src, or nil and the refusal. Hop 0 is the initiator calling
// its own handler, which trusts itself: a wire message never gets here as hop
// 0.
func (s *Service) authHop(src topology.IA, body []byte, mac *[cryptoutil.MACSize]byte, idx int) (*keyCrypto, Refusal) {
	now := s.clock()
	kc := s.ownCrypto(src, now)
	if idx == 0 {
		return kc, Granted
	}
	if !kc.verify(body, mac) {
		s.metrics.AuthFailures.Add(1)
		return nil, RefusedAuth
	}
	if !s.rate.Allow(src, now) {
		s.metrics.RateLimited.Add(1)
		return nil, RefusedRateLimit
	}
	return kc, Granted
}

// hopIndex returns the first position of ia on path, or -1.
func hopIndex(path []PathHop, ia topology.IA) int {
	for i, h := range path {
		if h.IA == ia {
			return i
		}
	}
	return -1
}

// wireHop takes idx, this AS's first position on the path of a message that
// arrived over the wire (-1 for none), and returns it, or the answer to give
// instead: ErrNotOnPath, or — for a message that names this AS as hop 0, which
// the initiator never sends itself and whose MAC nobody checks — RefusedAuth
// at hop 0, marshaled by refuse.
func (s *Service) wireHop(idx int, refuse func(at int, code Refusal) []byte) (int, []byte, error) {
	switch {
	case idx < 0:
		return 0, nil, ErrNotOnPath
	case idx == 0:
		s.metrics.AuthFailures.Add(1)
		return 0, refuse(0, RefusedAuth), nil
	}
	return idx, nil, nil
}

// The refusal of a request at hop at, one per response shape.
func refuseSeg(at int, code Refusal) []byte { return segResp(code, at, 0, 0) }
func refuseEE(at int, code Refusal) []byte {
	return (&EESetupResp{Refusal: code, FailedAt: uint8(at)}).Marshal()
}
func refuseWave(at int, code Refusal) []byte {
	return (&EEBatchRenewResp{Refusal: code, FailedAt: uint8(at)}).Marshal()
}

// vetoed asks the destination about one EER version, solo or a wave item (§3.3:
// it "also has to explicitly accept the EER request"); nil DstApprove accepts.
func (s *Service) vetoed(it EEBatchItem) bool {
	return s.dstApprove != nil && !s.dstApprove(it.ID, it.SrcHost, it.DstHost, it.BwKbps, it.ExpT)
}

// forward sends msg to next, the AS after this one, and checks its answer
// with load. The refusal is the one to charge to next: RefusedUnreachable or
// RefusedBadAnswer.
func (s *Service) forward(next topology.IA, msg []byte, load func([]byte) error) ([]byte, Refusal) {
	out, err := s.transport.Call(next, msg)
	if err != nil {
		return nil, RefusedUnreachable
	}
	if load(out) != nil {
		return nil, RefusedBadAnswer
	}
	return out, Granted
}

// newWaveScratch returns empty scratch with a fresh random nonce base. A
// system random source that fails is not recoverable.
func newWaveScratch() *waveScratch {
	sc := &waveScratch{}
	if err := cryptoutil.RandomNonces(sc.nonceBase[:]); err != nil {
		panic(err)
	}
	return sc
}

// nextNonce returns the nonce of sc's next seal: its base with the count of
// seals made through sc XORed into the low 64 bits.
func (sc *waveScratch) nextNonce() [cryptoutil.NonceSize]byte {
	sc.seals++
	n := sc.nonceBase
	binary.BigEndian.PutUint64(n[4:], binary.BigEndian.Uint64(n[4:])^sc.seals)
	return n
}

// sealHopAuth appends to dst this AS's σ (Eq. 4) for the EER version it at its
// path-wide grant final over hop field hf of hop idx, sealed for the source
// under kc (Eq. 5) with sc's next nonce. σ and its associated data live in sc.
func (s *Service) sealHopAuth(dst []byte, sc *waveScratch, kc *keyCrypto, it *EEBatchItem, final uint64, hf packet.HopField, idx int) []byte {
	res, eer := it.infos(final)
	sc.sigma = s.hopAuth(&res, &eer, hf)
	sc.ad = eerAuthAD(sc.ad[:0], it.ID, uint8(idx))
	nonce := sc.nextNonce()
	return kc.sealer.SealTo(dst, nonce[:], sc.sigma[:], sc.ad)
}

// waveAuthAD appends the associated data of hop idx's blob in the answer to a
// wave: the hop, the source's MAC of the wave towards it and the wave's final
// status vector. A blob therefore opens only at its own hop of its own wave,
// and only for the live items it was sealed for.
func waveAuthAD(b []byte, idx int, mac *[cryptoutil.MACSize]byte, final itemTail) []byte {
	b = append(append(b, byte(idx)), mac[:]...)
	for i := range final.len() {
		b = append(b, byte(final.status(i)))
	}
	return b
}

// sealWave seals into blob — exactly blobLen(live) bytes of the response — this
// AS's σ (Eq. 4) of every item of the wave sc.wave live in final at its
// path-wide grant, in wave order, for the source under kc (Eq. 5): one seal and
// one nonce, sc's next, for the whole wave at this hop. The σs run four
// abreast, the next four live items at a time; σs and associated data are
// built in sc.
func (s *Service) sealWave(blob []byte, sc *waveScratch, kc *keyCrypto, idx int, final itemTail) {
	w := &sc.wave
	hf := w.hopField(idx)
	var in [cryptoutil.MaxLanes][packet.EERAuthLen]byte
	lanes := [cryptoutil.MaxLanes][]byte{in[0][:], in[1][:], in[2][:], in[3][:]}
	var sigmas [cryptoutil.MaxLanes][cryptoutil.MACSize]byte
	sc.sigmas = sc.sigmas[:0]
	for i := 0; i < w.n; {
		n := 0
		for ; i < w.n && n < len(in); i++ {
			if final.status(i) == Granted {
				it := w.item(i)
				res, eer := it.infos(final.grant(i))
				packet.EERAuthInput(&in[n], &res, &eer, hf)
				n++
			}
		}
		s.mac.SumLanes(sigmas[:n], lanes[:n])
		for _, sigma := range sigmas[:n] {
			sc.sigmas = append(sc.sigmas, sigma[:]...)
		}
	}
	sc.ad = waveAuthAD(sc.ad[:0], idx, w.macAt(idx), final)
	nonce := sc.nextNonce()
	kc.sealer.SealTo(blob[:0:len(blob)], nonce[:], sc.sigmas, sc.ad)
}

// openWave is sealWave's counterpart at the initiator: it opens every hop's
// blob of resp, the answer to the wave sc.req, under hops[h] — one open per hop
// — into sc.sigmas, hop-major: the σ hop h sealed for the j-th live item is
// the (h·live + j)-th 16 bytes. A blob that does not open fails the whole wave.
func (sc *waveScratch) openWave(hops []*keyCrypto, resp *waveRespView) error {
	sc.sigmas = sc.sigmas[:0]
	final := resp.outcomes()
	for h := range resp.nb {
		sc.ad = waveAuthAD(sc.ad[:0], h, &sc.req.Macs[h], final)
		opened, err := hops[h].sealer.OpenTo(sc.sigmas, resp.blob(h), sc.ad)
		if err != nil {
			return fmt.Errorf("cserv: opening the hop authenticators hop %d sealed: %w", h, err)
		}
		sc.sigmas = opened
	}
	return nil
}

// openGrant is sealHopAuth's counterpart at the initiator: it completes g,
// whose chain the caller set, as the grant of the EER version it at its
// path-wide grant final, opening the σ hop h sealed, the h-th authenticator of
// resp, under hops[h] straight into the grant: it retains nothing of the
// response buffer.
func (sc *waveScratch) openGrant(g *EERGrant, hops []*keyCrypto, it *EEBatchItem, final uint64, resp *eeRespView) error {
	g.ID = it.ID
	g.Res, g.EER = it.infos(final)
	g.HopAuths = make([]cryptoutil.Key, resp.n)
	off := eeRespFixedLen
	for h := range resp.n {
		var enc []byte
		enc, off = resp.auth(off)
		err := cryptoutil.ErrAEADOpen
		if len(enc) == sealedAuthLen {
			sc.ad = eerAuthAD(sc.ad[:0], it.ID, uint8(h))
			_, err = hops[h].sealer.OpenTo(g.HopAuths[h][:0], enc, sc.ad)
		}
		if err != nil {
			return fmt.Errorf("cserv: opening hop authenticator %d of %s (%d bytes): %w", h, it.ID, len(enc), err)
		}
	}
	return nil
}
