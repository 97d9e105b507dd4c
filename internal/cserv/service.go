package cserv

import (
	"errors"
	"fmt"
	"sync"

	"colibri/internal/admission"
	"colibri/internal/cryptoutil"
	"colibri/internal/drkey"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/telemetry"
	"colibri/internal/topology"
)

// Transport carries control-plane messages between CServs (gRPC over QUIC
// in the paper's implementation): Call delivers a marshaled request to the
// CServ of dst and returns its marshaled response synchronously. msg belongs
// to the caller, who may reuse it after Call returns: an implementation must
// neither keep nor modify it. The response belongs to the caller from then on.
type Transport interface {
	Call(dst topology.IA, msg []byte) ([]byte, error)
}

// Policy is the source AS's intra-AS admission policy for its hosts ("it
// falls to the AS in which H_S is situated to set limits on the maximum
// bandwidth that H_S can request", §3.3). The source AS asks it about its own
// hosts' EERs only.
type Policy interface {
	// AllowEER decides whether srcHost may hold EER id at bwKbps until expT: a
	// new EER, or a renewal replacing what id holds now. An allowed request is
	// held against the host at the larger of the two until SettleEER.
	AllowEER(srcHost uint32, id reservation.ID, bwKbps uint64, expT uint32) error
	// SettleEER states what EER id holds once the request is answered: the
	// final grant, on a failure what it held before, 0 for nothing.
	SettleEER(srcHost uint32, id reservation.ID, bwKbps uint64, expT uint32)
	// Expire forgets EERs whose expiry has passed (called from Service.Tick).
	Expire(now uint32)
}

// AllowAll grants every host request.
type AllowAll struct{}

// AllowEER implements Policy.
func (AllowAll) AllowEER(uint32, reservation.ID, uint64, uint32) error { return nil }

// SettleEER implements Policy.
func (AllowAll) SettleEER(uint32, reservation.ID, uint64, uint32) {}

// Expire implements Policy.
func (AllowAll) Expire(uint32) {}

// HostCapPolicy limits the bandwidth of the live EERs each host holds to a
// fixed total; hosts not in PerHost get the default cap.
type HostCapPolicy struct {
	DefaultCapKbps uint64
	PerHost        map[uint32]uint64

	mu   sync.Mutex
	used map[uint32]uint64
	eers map[reservation.ID]hostEER
}

// hostEER is what one EER holds of its host's cap, until expT.
type hostEER struct {
	host uint32
	bw   uint64
	expT uint32
}

// set makes e what EER id holds (nothing, when e.bw is 0).
func (p *HostCapPolicy) set(id reservation.ID, e hostEER) {
	if p.eers == nil {
		p.used = make(map[uint32]uint64)
		p.eers = make(map[reservation.ID]hostEER)
	}
	old := p.eers[id]
	p.used[old.host] -= old.bw
	p.used[e.host] += e.bw
	if e.bw == 0 {
		delete(p.eers, id)
	} else {
		p.eers[id] = e
	}
}

// AllowEER implements Policy.
func (p *HostCapPolicy) AllowEER(srcHost uint32, id reservation.ID, bwKbps uint64, expT uint32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	capKbps := p.DefaultCapKbps
	if c, ok := p.PerHost[srcHost]; ok {
		capKbps = c
	}
	old := p.eers[id]
	others := p.used[srcHost] - old.bw
	if bwKbps > old.bw && others+bwKbps > capKbps {
		return fmt.Errorf("cserv: host %d exceeds its EER cap (%d + %d > %d kbps)",
			srcHost, others, bwKbps, capKbps)
	}
	p.set(id, hostEER{host: srcHost, bw: max(old.bw, bwKbps), expT: max(old.expT, expT)})
	return nil
}

// SettleEER implements Policy.
func (p *HostCapPolicy) SettleEER(srcHost uint32, id reservation.ID, bwKbps uint64, expT uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.set(id, hostEER{host: srcHost, bw: bwKbps, expT: expT})
}

// Expire implements Policy.
func (p *HostCapPolicy) Expire(now uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, e := range p.eers {
		if e.expT <= now {
			delete(p.eers, id)
		}
	}
	clear(p.used)
	for _, e := range p.eers {
		p.used[e.host] += e.bw
	}
}

// Config assembles a Service.
type Config struct {
	AS    *topology.AS
	Topo  *topology.Topology
	Split admission.TrafficSplit
	// Secret is the AS's data-plane secret K_i used for SegR tokens and hop
	// authenticators; shared with the AS's border routers.
	Secret cryptoutil.Key
	// Engine derives DRKey level-1 keys on the fly (fast side).
	Engine *drkey.Engine
	// Keys fetches and caches remote level-1 keys (slow side).
	Keys *drkey.Store
	// Directory is the (possibly shared) SegR registry of Appendix C.
	Directory *Directory
	// Transport reaches remote CServs.
	Transport Transport
	// Clock returns the current Unix time in seconds.
	Clock func() uint32
	// Policy guards host EER requests at the source AS (default AllowAll).
	Policy Policy
	// DstApprove lets the destination AS/host veto an EER request (§3.3:
	// the destination "also has to explicitly accept"); nil accepts. req is
	// the handler's scratch: valid for the call only, not to be kept.
	DstApprove func(req *EESetupReq) bool
	// RateLimit is the per-source-AS control-request budget per second
	// (default 1000; §5.3 "per-AS rate limiting").
	RateLimit int
	// CPlaneShards is the shard count of the CPlane, the engine that holds the
	// service's admission state: SegR admission in per-shard admitters, EER
	// demand in per-SegR restree ledgers, one record per EER. It must be a
	// power of two; 0 = 1. The store keeps the SegR protocol state (versions,
	// tokens, idempotency keys).
	CPlaneShards int
	// Telemetry is the AS-wide registry the service's metrics and lifecycle
	// tracer attach to; a private registry is created when nil.
	Telemetry *telemetry.Registry
}

// Service is one AS's Colibri service.
type Service struct {
	ia topology.IA

	// store carries the SegR protocol state; cp, the control-plane engine, all
	// admission state: SegR admission and the EER records with their demand
	// ledgers (see cplane_live.go).
	store    *reservation.Store
	cp       *CPlane
	transfer *admission.TransferSplit

	secret  cryptoutil.Key
	engine  *drkey.Engine
	keys    *drkey.Store
	macPool sync.Pool // *cryptoutil.CBCMAC keyed by secret
	// keyCache holds the control-plane crypto of recently used level-1 keys
	// (see cryptoFor); waveFree the idle batch-renewal scratch (see getWave).
	keyMu    sync.Mutex
	keyCache map[cryptoutil.Key]*keyCrypto
	waveMu   sync.Mutex
	waveFree []*waveScratch

	dir        *Directory
	transport  Transport
	clock      func() uint32
	policy     Policy
	dstApprove func(req *EESetupReq) bool
	rate       *RateLimiter
	metrics    Metrics
}

// New builds a Service.
func New(cfg Config) *Service {
	if cfg.Clock == nil {
		panic("cserv: Config.Clock is required")
	}
	if cfg.Policy == nil {
		cfg.Policy = AllowAll{}
	}
	if cfg.RateLimit == 0 {
		cfg.RateLimit = 1000
	}
	if cfg.Split == (admission.TrafficSplit{}) {
		cfg.Split = admission.DefaultSplit
	}
	cp, err := NewCPlane(CPlaneConfig{
		AS:     cfg.AS,
		Split:  cfg.Split,
		Shards: cfg.CPlaneShards,
		Clock:  cfg.Clock,
	})
	if err != nil {
		panic(err)
	}
	s := &Service{
		ia:         cfg.AS.IA,
		store:      reservation.NewStore(cfg.AS.IA),
		cp:         cp,
		transfer:   admission.NewTransferSplit(),
		secret:     cfg.Secret,
		engine:     cfg.Engine,
		keys:       cfg.Keys,
		dir:        cfg.Directory,
		transport:  cfg.Transport,
		clock:      cfg.Clock,
		policy:     cfg.Policy,
		dstApprove: cfg.DstApprove,
		rate:       NewRateLimiter(cfg.RateLimit),
		keyCache:   make(map[cryptoutil.Key]*keyCrypto),
	}
	s.macPool.New = func() any { return cryptoutil.MustCBCMAC(s.secret) }
	s.metrics.init("cserv "+cfg.AS.IA.String(), cfg.Telemetry)
	// An EER that lapses without being renewed must return its charge to the
	// §4.7 transfer-split accounting, or dead demand accumulates until the
	// fair-share cap refuses every re-admission (the renewal-storm recovery
	// path found this at 10⁶ flows). Only up→core records ever admitted
	// through the split; the core+down pair at the far transfer AS carries no
	// split charge.
	cp.OnExpire(func(seg, seg2 reservation.ID, bwKbps uint64) {
		up, err := s.store.GetSegR(seg)
		if err != nil || up.SegType != segment.Up {
			return
		}
		core, err := s.store.GetSegR(seg2)
		if err != nil || core.SegType != segment.Core {
			return
		}
		s.transfer.Release(core.ID, up.ID, bwKbps, bwKbps)
	})
	return s
}

// IA returns the service's AS.
func (s *Service) IA() topology.IA { return s.ia }

// Store exposes the reservation database (border routers and the gateway of
// the same AS read it; tests inspect it).
func (s *Service) Store() *reservation.Store { return s.store }

// CPlane exposes the control-plane engine that holds the admission state.
func (s *Service) CPlane() *CPlane { return s.cp }

// Secret returns the AS data-plane secret shared with the border routers.
func (s *Service) Secret() cryptoutil.Key { return s.secret }

// Metrics returns the service's control-plane counters.
func (s *Service) Metrics() *Metrics { return &s.metrics }

// Service-level errors.
var (
	ErrAuth        = errors.New("cserv: control-plane authentication failed")
	ErrRateLimited = errors.New("cserv: source AS rate-limited")
	ErrNotOnPath   = errors.New("cserv: this AS is not on the request path")
	ErrRefused     = errors.New("cserv: request refused")
)

// HandleMsg dispatches a marshaled control message from a remote CServ and
// returns the marshaled response. This is the Transport server side.
func (s *Service) HandleMsg(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	switch data[0] {
	case tagSegSetup, tagSegRenew:
		req, err := UnmarshalSegSetupReq(data)
		if err != nil {
			return nil, err
		}
		idx, err := s.hopIndex(req.Path)
		if err != nil {
			return nil, err
		}
		if idx == 0 {
			return (&SegSetupResp{Reason: s.refuseHop0()}).Marshal(), nil
		}
		resp := s.processSegSetup(req, idx, accumFromReq(req))
		return resp.Marshal(), nil
	case tagSegActivate:
		req, err := UnmarshalSegActivateReq(data)
		if err != nil {
			return nil, err
		}
		idx, err := s.hopIndex(req.Path)
		if err != nil {
			return nil, err
		}
		if idx == 0 {
			return (&SegSetupResp{Reason: s.refuseHop0()}).Marshal(), nil
		}
		resp := s.processSegActivate(req, idx)
		return resp.Marshal(), nil
	case tagEESetup, tagEERenew:
		// Decoded into scratch like a wave; the response is never part of it.
		sc := s.getWave()
		defer s.putWave(sc)
		req := &sc.solo
		if err := req.unmarshal(data); err != nil {
			return nil, err
		}
		idx, err := s.hopIndex(req.Path)
		if err != nil {
			return nil, err
		}
		if idx == 0 {
			return (&EESetupResp{Reason: s.refuseHop0()}).Marshal(), nil
		}
		// As with accumFromReq: forwarders always set AccumKbps and zero is
		// a real accumulated grant, not "unset".
		resp, _ := s.processEESetup(sc, idx, min(req.AccumKbps, req.BwKbps))
		return resp, nil
	case tagEEBatchRenew:
		// The decoded wave and everything derived from it live in scratch that
		// goes back to the service once the response is marshaled.
		sc := s.getWave()
		defer s.putWave(sc)
		if err := sc.req.unmarshal(data); err != nil {
			return nil, err
		}
		idx, err := s.hopIndex(sc.req.Path)
		if err != nil {
			return nil, err
		}
		if idx == 0 {
			return (&EEBatchRenewResp{Reason: s.refuseHop0()}).Marshal(), nil
		}
		return s.processEEBatchRenew(sc, idx).Marshal(), nil
	case tagDownReq:
		req, err := UnmarshalDownSegReq(data)
		if err != nil {
			return nil, err
		}
		return s.handleDownReq(req).Marshal(), nil
	default:
		return nil, ErrBadTag
	}
}

func (s *Service) hopIndex(path []PathHop) (int, error) {
	for i, h := range path {
		if h.IA == s.ia {
			return i, nil
		}
	}
	return 0, ErrNotOnPath
}

// refuseHop0 answers a message that names this AS as hop 0: the initiator
// calls process* directly and never sends itself one, and hop 0 carries no MAC
// to check, so what arrives claiming it fails authentication like a bad MAC.
func (s *Service) refuseHop0() string {
	s.metrics.AuthFailures.Add(1)
	return "authentication: " + ErrAuth.Error()
}

// accumFromReq reads the accumulated grant forwarded by the previous hop.
// Forwarders always set AccumKbps, and zero is a real value (a renewal can
// legally be granted 0 kbps upstream), so it must not be read as "unset" —
// that would resurrect the full demand downstream of a zero grant. The
// value is clamped to the requested maximum for robustness.
func accumFromReq(req *SegSetupReq) uint64 {
	if req.AccumKbps > req.MaxKbps {
		return req.MaxKbps
	}
	return req.AccumKbps
}

// verifySourceMac checks the DRKey MAC for this AS: the source computed
// MAC_{K_{me→SrcAS}}(body), which we re-derive on the fly (§4.5).
func (s *Service) verifySourceMac(srcAS topology.IA, body []byte, macs [][cryptoutil.MACSize]byte, idx int) error {
	key, _ := s.engine.Level1(srcAS, s.clock())
	return s.cryptoFor(key).verify(body, macs, idx)
}

// computeMacs builds the per-AS request MACs at the initiator, fetching
// K_{AS_i→me} from each on-path AS's key server (slow side, cached per
// epoch).
func (s *Service) computeMacs(path []PathHop, body []byte) ([][cryptoutil.MACSize]byte, error) {
	now := s.clock()
	macs := make([][cryptoutil.MACSize]byte, len(path))
	for i, h := range path {
		key, err := s.hopKey(h.IA, now)
		if err != nil {
			return nil, err
		}
		s.cryptoFor(key).cmac.SumInto(&macs[i], body)
	}
	return macs, nil
}

// hopKey returns K_{ia→me}, the level-1 key an on-path AS shares with this
// (initiating) AS: derived locally for this AS itself, fetched from ia's key
// server and cached per epoch otherwise.
func (s *Service) hopKey(ia topology.IA, now uint32) (cryptoutil.Key, error) {
	if ia == s.ia {
		key, _ := s.engine.Level1(s.ia, now)
		return key, nil
	}
	return s.keys.Get(ia, now)
}

// keyCrypto is the control-plane crypto bound to one level-1 DRKey key: the
// AEAD that seals and opens hop authenticators (Eq. 5) and the CMAC that
// authenticates requests (§4.5). Building either costs an AES key expansion,
// several times the work of one use, and the keys are constant for a DRKey
// epoch — so they are built once per key, not once per message or per item.
// Both are immutable once built, so a keyCrypto is shared without a lock.
type keyCrypto struct {
	sealer *cryptoutil.Sealer
	cmac   *cryptoutil.CMAC
}

// verify checks macs[idx], the source's MAC of body towards the AS that holds
// this key.
func (k *keyCrypto) verify(body []byte, macs [][cryptoutil.MACSize]byte, idx int) error {
	if idx >= len(macs) {
		return fmt.Errorf("%w: missing MAC for hop %d", ErrAuth, idx)
	}
	var want [cryptoutil.MACSize]byte
	k.cmac.SumInto(&want, body)
	if !cryptoutil.ConstantTimeEqual(want[:], macs[idx][:]) {
		return ErrAuth
	}
	return nil
}

// keyCacheSize bounds the per-service key cache. A request names its source
// AS before it is authenticated, so the set of keys asked for is under remote
// control: a full cache is emptied and refills with the keys in use.
const keyCacheSize = 64

// cryptoFor returns the cached crypto of a level-1 key, building it on first
// use. Keyed by the key itself, so a DRKey epoch change needs no invalidation.
func (s *Service) cryptoFor(key cryptoutil.Key) *keyCrypto {
	s.keyMu.Lock()
	defer s.keyMu.Unlock()
	kc, ok := s.keyCache[key]
	if !ok {
		if len(s.keyCache) >= keyCacheSize {
			clear(s.keyCache)
		}
		kc = &keyCrypto{sealer: cryptoutil.NewSealer(key), cmac: cryptoutil.MustCMAC(key)}
		s.keyCache[key] = kc
	}
	return kc
}

// segToken computes the Eq. (3) SegR token for this AS.
func (s *Service) segToken(res *packet.ResInfo, hf packet.HopField) [packet.HVFLen]byte {
	var input [packet.SegAuthLen]byte
	packet.SegAuthInput(&input, res, hf)
	mac := s.macPool.Get().(*cryptoutil.CBCMAC)
	var full [cryptoutil.MACSize]byte
	mac.SumInto(&full, input[:])
	s.macPool.Put(mac)
	var tok [packet.HVFLen]byte
	copy(tok[:], full[:packet.HVFLen])
	return tok
}

// hopAuth computes the Eq. (4) hop authenticator σ for this AS.
func (s *Service) hopAuth(res *packet.ResInfo, eer *packet.EERInfo, hf packet.HopField) cryptoutil.Key {
	var input [packet.EERAuthLen]byte
	packet.EERAuthInput(&input, res, eer, hf)
	mac := s.macPool.Get().(*cryptoutil.CBCMAC)
	var full [cryptoutil.MACSize]byte
	mac.SumInto(&full, input[:])
	s.macPool.Put(mac)
	return cryptoutil.Key(full)
}

// Tick advances housekeeping: expiry cleanup in the store, releasing the
// admission state of removed SegRs, and the expiry of EER records. Call it
// periodically (once per second suffices).
func (s *Service) Tick() {
	now := s.clock()
	removed := s.store.Cleanup(now)
	for _, id := range removed {
		// DropSegR also tears down the EER charges riding on the SegR —
		// including transfer-AS records whose other segment survives.
		s.cp.DropSegR(id)
		s.transfer.DropCore(id)
		if s.dir != nil {
			s.dir.Unregister(id)
		}
	}
	s.cp.Tick()
	if s.dir != nil {
		s.dir.Expire(now)
	}
	s.rate.Tick(now)
	s.policy.Expire(now)
}
