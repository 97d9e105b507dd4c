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
	// DstApprove lets the destination AS/host veto an EER version (§3.3: the
	// destination "also has to explicitly accept"): asked at the last hop for a
	// solo request and for every live item of a renewal wave alike. nil accepts.
	DstApprove func(id reservation.ID, srcHost, dstHost uint32, bwKbps uint64, expT uint32) bool
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

	secret cryptoutil.Key
	// mac is the CBC-MAC under secret (K_i) that computes SegR tokens and σs;
	// immutable, so every handler shares it without a lock.
	mac    *cryptoutil.CBCMAC
	engine *drkey.Engine
	keys   *drkey.Store
	// keyCache holds the control-plane crypto of recently used level-1 keys
	// (see cryptoFor); waveFree the idle batch-renewal scratch (see getWave).
	keyCache keyCache
	waveMu   sync.Mutex
	waveFree []*waveScratch

	dir        *Directory
	transport  Transport
	clock      func() uint32
	policy     Policy
	dstApprove func(id reservation.ID, srcHost, dstHost uint32, bwKbps uint64, expT uint32) bool
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
		mac:        cryptoutil.MustCBCMAC(cfg.Secret),
		engine:     cfg.Engine,
		keys:       cfg.Keys,
		dir:        cfg.Directory,
		transport:  cfg.Transport,
		clock:      cfg.Clock,
		policy:     cfg.Policy,
		dstApprove: cfg.DstApprove,
		rate:       NewRateLimiter(cfg.RateLimit),
		keyCache: keyCache{index: make(map[cryptoutil.Key]*keyCrypto, keyCacheSize),
			own: make(map[ownKey]*keyCrypto, keyCacheSize)},
	}
	s.metrics.init("cserv "+cfg.AS.IA.String(), cfg.Telemetry)
	// An EER that lapses without being renewed, or loses a covering SegR, must
	// return its charge to the §4.7 transfer-split accounting, or dead demand
	// accumulates until the fair-share cap refuses every re-admission (the
	// renewal-storm recovery path found this at 10⁶ flows). Only up→core
	// records ever admitted through the split, so only they find books for
	// their (core, up) pair; the core+down pair at the far transfer AS carries
	// no split charge. The split decides alone: a dropped SegR has already left
	// the store.
	cp.OnExpire(func(seg, seg2 reservation.ID, bwKbps uint64) {
		if p := s.transfer.Lookup(seg2, seg); p != nil {
			p.Release(bwKbps, bwKbps)
		}
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

// Metrics returns the service's control-plane counters.
func (s *Service) Metrics() *Metrics { return &s.metrics }

// Service-level errors.
var (
	ErrAuth      = errors.New("cserv: control-plane authentication failed")
	ErrNotOnPath = errors.New("cserv: this AS is not on the request path")
	ErrRefused   = errors.New("cserv: request refused")
)

// HandleMsg dispatches a marshaled control message from a remote CServ and
// returns the marshaled response. This is the Transport server side. The
// accumulated grant the previous hop forwards is clamped to what is asked;
// zero is a real value (a renewal can legally be granted 0 kbps upstream), not
// "unset", which would resurrect the full demand downstream of a zero grant.
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
		idx, out, err := s.wireHop(req.Path, refuseSeg)
		if idx == 0 {
			return out, err
		}
		return s.processSegSetup(req, idx, min(req.AccumKbps, req.MaxKbps)).Marshal(), nil
	case tagSegActivate:
		req, err := UnmarshalSegActivateReq(data)
		if err != nil {
			return nil, err
		}
		idx, out, err := s.wireHop(req.Path, refuseSeg)
		if idx == 0 {
			return out, err
		}
		return s.processSegActivate(req, idx).Marshal(), nil
	case tagEESetup, tagEERenew:
		// Decoded into scratch like a wave; the response is never part of it.
		sc := s.getWave()
		defer s.putWave(sc)
		req := &sc.solo
		if err := req.unmarshal(data); err != nil {
			return nil, err
		}
		idx, out, err := s.wireHop(req.Path, refuseEE)
		if idx == 0 {
			return out, err
		}
		out, _ = s.processEESetup(sc, idx, min(req.AccumKbps, req.BwKbps))
		return out, nil
	case tagEEBatchRenew:
		// The decoded wave and everything derived from it live in scratch that
		// goes back to the service once this hop has sealed its blob; the
		// response is never part of it.
		sc := s.getWave()
		defer s.putWave(sc)
		if err := sc.req.unmarshal(data); err != nil {
			return nil, err
		}
		idx, out, err := s.wireHop(sc.req.Path, refuseWave)
		if idx == 0 {
			return out, err
		}
		return s.processEEBatchRenew(sc, idx), nil
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

// segToken computes the Eq. (3) SegR token for this AS.
func (s *Service) segToken(res *packet.ResInfo, hf packet.HopField) [packet.HVFLen]byte {
	var input [packet.SegAuthLen]byte
	packet.SegAuthInput(&input, res, hf)
	var full [cryptoutil.MACSize]byte
	s.mac.SumInto(&full, input[:])
	var tok [packet.HVFLen]byte
	copy(tok[:], full[:packet.HVFLen])
	return tok
}

// hopAuth computes the Eq. (4) hop authenticator σ for this AS.
func (s *Service) hopAuth(res *packet.ResInfo, eer *packet.EERInfo, hf packet.HopField) (sigma cryptoutil.Key) {
	var input [packet.EERAuthLen]byte
	packet.EERAuthInput(&input, res, eer, hf)
	s.mac.SumInto((*[cryptoutil.MACSize]byte)(&sigma), input[:])
	return sigma
}

// Tick advances housekeeping: expiry cleanup in the store, releasing the
// admission state of removed SegRs, and the expiry of EER records. Call it
// periodically (once per second suffices).
func (s *Service) Tick() {
	now := s.clock()
	removed := s.store.Cleanup(now)
	for _, id := range removed {
		// DropSegR also tears down the EER charges riding on the SegR —
		// including transfer-AS records whose other segment survives, whose
		// split charges go back through the expiry hook — and then the split
		// forgets the SegR's pairs.
		s.cp.DropSegR(id)
		s.transfer.DropSegR(id)
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
