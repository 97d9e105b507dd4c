// envelope.go — the one authentication envelope of every control message
// (§4.5, §5.3): the key cache both halves probe (keyCache), one signer at the
// initiator (signPath), one verify-and-throttle at each hop before any state
// is touched (authHop, wireHop), the request scratch and its nonces
// (getWave), and the hop tail the EER handlers share — the destination's veto,
// the forward whose failures are charged to the next hop, the σ seal and, at
// the initiator, its opening.
package cserv

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"colibri/internal/cryptoutil"
	"colibri/internal/drkey"
	"colibri/internal/packet"
	"colibri/internal/topology"
)

// keyCrypto is the control-plane crypto bound to one level-1 DRKey key: the
// AEAD that seals and opens hop authenticators (Eq. 5) and the CMAC that
// authenticates requests (§4.5). Building either costs an AES key expansion,
// several times the work of one use, and the keys are constant for a DRKey
// epoch — so they are built once per key, not once per message or per item.
// An entry is immutable once the cache publishes it, but for two atomic words:
// used, the clock mark, and tokens, the rate word of K_{me→src}.
type keyCrypto struct {
	sealer *cryptoutil.Sealer
	cmac   *cryptoutil.CMAC
	key    cryptoutil.Key
	name   keyName
	// epoch is the DRKey epoch the key is valid for: this AS's own for
	// K_{me→src}, the one the key server answered with for K_{ia→me}.
	epoch drkey.Epoch
	used  atomic.Bool
	// tokens is src's per-second request budget at this AS, for K_{me→src}:
	// the second of the last token taken in the high 32 bits, the tokens
	// taken in that second in the low 32 (takeToken).
	tokens atomic.Uint64
}

// keyName names an entry of the key cache: K_{me→src} by its source AS and
// this AS's DRKey epoch, K_{ia→me} by the on-path AS ia alone (fetched set),
// whatever epoch it was fetched for.
type keyName struct {
	ia      topology.IA
	epoch   uint32
	fetched bool
}

// home is the name's first slot in the cache's table: a multiplicative hash
// of the name, top bits.
func (n keyName) home() int {
	x := uint64(n.ia) ^ uint64(n.epoch)<<1
	if n.fetched {
		x ^= 1
	}
	return int(x * 0x9e3779b97f4a7c15 >> (64 - keySlotBits))
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

// takeToken takes one of the source's perSec tokens for second now from the
// rate word of K_{me→src}, and reports whether there was one. A word of
// another second counts as empty; a refusal writes nothing. The CAS makes the
// count exact however many handlers take tokens at once.
//
//colibri:nomalloc
func (k *keyCrypto) takeToken(now, perSec uint32) bool {
	for {
		w := k.tokens.Load()
		n := uint32(w)
		if uint32(w>>32) != now {
			n = 0
		}
		if n >= perSec {
			return false
		}
		if k.tokens.CompareAndSwap(w, uint64(now)<<32|uint64(n+1)) {
			return true
		}
	}
}

// spentIn reports whether the source took a token in second now.
func (k *keyCrypto) spentIn(now uint32) bool {
	w := k.tokens.Load()
	return uint32(w>>32) == now && uint32(w) != 0
}

// macOf returns macs[idx], nil past the last.
func macOf(macs [][cryptoutil.MACSize]byte, idx int) *[cryptoutil.MACSize]byte {
	if idx >= len(macs) {
		return nil
	}
	return &macs[idx]
}

// keyCacheSize bounds the per-service key cache; its table has twice as many
// slots (keySlotBits).
const (
	keyCacheSize = 64
	keySlotBits  = 7
)

// keyCache is a service's cache of control-plane crypto: at most keyCacheSize
// entries, in an open-addressed table that readers probe without a lock and in
// a ring the clock sweeps. It holds both kinds of key a hop uses: K_{me→src},
// which this AS derives, per source and epoch; and K_{ia→me}, which it fetched
// from ia's key server (drkey.Store), per on-path AS, good until its epoch
// ends.
//
// A hit (probe) is a hash, atomic loads and a name compare, and takes no lock:
// entries are immutable once published. Misses, insertions, evictions and the
// fetch of an expired key run under mu. A reader that races an eviction finds
// either the old entry, still right for its name, or nothing, and then takes
// the locked path, which looks again before it builds.
//
// A request names its source AS before it is authenticated, so the keys asked
// for are under remote control; a full cache therefore evicts one entry by the
// clock rule — the hand sweeps the ring, clearing each entry's used mark, and
// evicts the first entry it finds unmarked that has not taken a rate token in
// the current second. A key used again before the hand comes round — any key
// of honest traffic that recurs within some sixty insertions — stays, and so
// does a source that sends in this second, with its count: keys an attacker
// names cost honest traffic at most one rebuild per keyCacheSize of them, and
// cannot reset a budget. Marks matter only once the cache is full, so a hit on
// a cache that is not — the honest steady state — writes nothing.
type keyCache struct {
	slots [1 << keySlotBits]atomic.Pointer[keyCrypto]
	full  atomic.Bool

	mu   sync.Mutex
	ring [keyCacheSize]*keyCrypto
	n    int
	hand int
}

// probe returns the entry named name, or nil. It takes no lock.
//
//colibri:nomalloc
func (c *keyCache) probe(name keyName) *keyCrypto {
	for i, n := name.home(), 0; n < len(c.slots); i, n = (i+1)%len(c.slots), n+1 {
		kc := c.slots[i].Load()
		if kc == nil {
			return nil
		}
		if kc.name == name {
			if c.full.Load() && !kc.used.Load() {
				kc.used.Store(true)
			}
			return kc
		}
	}
	return nil
}

// insert publishes kc, evicting one entry by the clock rule when the cache is
// full. Under mu.
func (c *keyCache) insert(kc *keyCrypto, now uint32) {
	if c.n < keyCacheSize {
		c.ring[c.n] = kc
		c.n++
		c.full.Store(c.n == keyCacheSize)
	} else {
		// Two sweeps clear every mark; past them the hand's entry goes.
		for range 2 * keyCacheSize {
			if old := c.ring[c.hand]; !old.used.Swap(false) && !old.spentIn(now) {
				break
			}
			c.hand = (c.hand + 1) % keyCacheSize
		}
		c.remove(c.ring[c.hand])
		c.ring[c.hand] = kc
		c.hand = (c.hand + 1) % keyCacheSize
	}
	i := kc.name.home()
	for c.slots[i].Load() != nil {
		i = (i + 1) % len(c.slots)
	}
	c.slots[i].Store(kc)
}

// replace puts kc, of the same name, where old is in table and ring. Under
// mu.
func (c *keyCache) replace(old, kc *keyCrypto) {
	for i := range c.slots {
		if c.slots[i].Load() == old {
			c.slots[i].Store(kc)
		}
	}
	for i, e := range c.ring[:c.n] {
		if e == old {
			c.ring[i] = kc
		}
	}
}

// remove takes old out of the table, shifting back the entries after it that
// its slot would strand, so that a probe never needs tombstones. Under mu.
func (c *keyCache) remove(old *keyCrypto) {
	n := len(c.slots)
	i := old.name.home()
	for c.slots[i].Load() != old {
		i = (i + 1) % n
	}
	for j := (i + 1) % n; ; j = (j + 1) % n {
		kc := c.slots[j].Load()
		if kc == nil {
			break
		}
		if h := kc.name.home(); (j-h+n)%n >= (j-i+n)%n {
			c.slots[i].Store(kc)
			i = j
		}
	}
	c.slots[i].Store(nil)
}

// newKeyCrypto builds the crypto of key, named name and valid for ep.
func newKeyCrypto(key cryptoutil.Key, name keyName, ep drkey.Epoch) *keyCrypto {
	cmac, _ := cryptoutil.NewCMAC(key) // a Key has the one valid length
	return &keyCrypto{sealer: cryptoutil.NewSealer(key), cmac: cmac, key: key, name: name, epoch: ep}
}

// ownCrypto returns the crypto of K_{me→src} for the DRKey epoch of now: one
// probe, or the key derived and cached under its (src, epoch) name. At an epoch
// change the name changes, so the old epoch's key is never found for the new
// one. Its rate word starts empty: a second lies in one epoch, so the old
// entry's word is of an earlier second, which takeToken counts as empty.
func (s *Service) ownCrypto(src topology.IA, now uint32) *keyCrypto {
	ep := s.engine.EpochAt(now)
	name := keyName{ia: src, epoch: ep.Begin}
	if kc := s.keyCache.probe(name); kc != nil {
		return kc
	}
	c := &s.keyCache
	c.mu.Lock()
	defer c.mu.Unlock()
	if kc := c.probe(name); kc != nil {
		return kc
	}
	key, _ := s.engine.Level1(src, now)
	kc := newKeyCrypto(key, name, ep)
	c.insert(kc, now)
	return kc
}

// hopKey returns the crypto of K_{ia→me}, the level-1 key an on-path AS shares
// with this (initiating) AS: this AS's own derivation for itself, and
// otherwise one probe, or the key fetched from ia's key server once the cached
// one's epoch has ended.
func (s *Service) hopKey(ia topology.IA, now uint32) (*keyCrypto, error) {
	if ia == s.ia {
		return s.ownCrypto(s.ia, now), nil
	}
	name := keyName{ia: ia, fetched: true}
	if kc := s.keyCache.probe(name); kc != nil && kc.epoch.Contains(now) {
		return kc, nil
	}
	c := &s.keyCache
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.probe(name)
	if old != nil && old.epoch.Contains(now) {
		return old, nil
	}
	key, ep, err := s.keys.KeyAt(ia, now)
	if err != nil {
		return nil, err
	}
	kc := newKeyCrypto(key, name, ep)
	if old != nil {
		c.replace(old, kc)
	} else {
		c.insert(kc, now)
	}
	return kc, nil
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
// from the key cache (ownCrypto), mac — src's MAC of body towards this AS, hop
// idx, nil for none — checked, and one token of src's per-second budget taken
// from the same entry (a wave is one message and pays one). body is what the hop received, never a
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
	if !kc.takeToken(now, s.rateLimit) {
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

// getWave hands a handler idle scratch: the service's idle slot, taken by one
// atomic swap, then its list of spares under waveMu, then fresh scratch. A
// scratch is in at most one of them, so it serves one handler at a time.
func (s *Service) getWave() *waveScratch {
	if sc := s.idle.Swap(nil); sc != nil {
		return sc
	}
	s.waveMu.Lock()
	defer s.waveMu.Unlock()
	if n := len(s.waveFree); n > 0 {
		sc := s.waveFree[n-1]
		s.waveFree = s.waveFree[:n-1]
		return sc
	}
	return newWaveScratch()
}

// putWave returns scratch once nothing refers to it any more: the response
// is sealed (or, at the initiator, opened into the grants). It goes into the
// idle slot if that is empty, onto the list of spares otherwise.
func (s *Service) putWave(sc *waveScratch) {
	if cap(sc.req.Items) > maxRetainedWave || cap(sc.states) > maxRetainedWave || cap(sc.fwd) > maxRetainedFwd ||
		cap(sc.sigmas) > blobLen(maxRetainedWave)*packet.MaxHops {
		return
	}
	// Empty the initiator's wave, and drop what aliases memory the scratch
	// does not own — the downstream responses, a decoded activation's or down
	// request's message.
	r := &sc.req
	r.SegIDs = r.SegIDs[:0]
	r.Splits = r.Splits[:0]
	r.Path = r.Path[:0]
	r.Items = r.Items[:0]
	r.Accums = r.Accums[:0]
	r.Status = r.Status[:0]
	r.Macs = r.Macs[:0]
	sc.wave.msg, sc.soloV.msg, sc.resp.msg, sc.soloResp.msg, sc.act.wire, sc.down.body = nil, nil, nil, nil, nil, nil
	if s.idle.CompareAndSwap(nil, sc) {
		return
	}
	s.waveMu.Lock()
	s.waveFree = append(s.waveFree, sc)
	s.waveMu.Unlock()
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
