package cserv

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
	// (default 1000, at most 2³²−1; §5.3 "per-AS rate limiting").
	RateLimit int
	// CPlaneShards is the shard count of the CPlane, the engine that holds the
	// service's reservation state: one record per SegR (its versions, grant,
	// EER demand ledger and transfer-split books), SegR admission in per-shard
	// admitters, one record per EER. It must be a power of two; 0 = 1.
	CPlaneShards int
	// Telemetry is the AS-wide registry the service's metrics and lifecycle
	// tracer attach to; a private registry is created when nil.
	Telemetry *telemetry.Registry
}

// Service is one AS's Colibri service.
type Service struct {
	ia topology.IA

	// cp, the control-plane engine, holds all reservation state: the one
	// record of each SegR, SegR admission and the EER records with their
	// demand ledgers (see cplane.go). nextNum numbers the reservations this AS
	// initiates.
	cp      *CPlane
	nextNum atomic.Uint32

	secret cryptoutil.Key
	// mac is the CBC-MAC under secret (K_i) that computes SegR tokens and σs;
	// immutable, so every handler shares it without a lock.
	mac    *cryptoutil.CBCMAC
	engine *drkey.Engine
	keys   *drkey.Store
	// keyCache holds the control-plane crypto of recently used level-1 keys
	// and each source's rate word (see keyCache); idle, then waveFree, the
	// idle request scratch (see getWave).
	keyCache keyCache
	idle     atomic.Pointer[waveScratch]
	waveMu   sync.Mutex
	waveFree []*waveScratch

	dir        *Directory
	transport  Transport
	clock      func() uint32
	policy     Policy
	dstApprove func(id reservation.ID, srcHost, dstHost uint32, bwKbps uint64, expT uint32) bool
	rateLimit  uint32
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
		cp:         cp,
		secret:     cfg.Secret,
		mac:        cryptoutil.MustCBCMAC(cfg.Secret),
		engine:     cfg.Engine,
		keys:       cfg.Keys,
		dir:        cfg.Directory,
		transport:  cfg.Transport,
		clock:      cfg.Clock,
		policy:     cfg.Policy,
		dstApprove: cfg.DstApprove,
		rateLimit:  uint32(cfg.RateLimit),
	}
	s.metrics.init("cserv "+cfg.AS.IA.String(), cfg.Telemetry)
	return s
}

// IA returns the service's AS.
func (s *Service) IA() topology.IA { return s.ia }

// Store is the AS's SegR registry, the CPlane, for readers outside the
// service (the experiments' and the benchmark's over-admission audits).
func (s *Service) Store() *CPlane { return s.cp }

// nextID allocates the ID of a reservation this AS initiates: this AS's
// number for it is locally unique, so the ID is globally unique (§4.3).
func (s *Service) nextID() reservation.ID {
	return reservation.ID{SrcAS: s.ia, Num: s.nextNum.Add(1)}
}

// CPlane exposes the control-plane engine that holds the admission state.
func (s *Service) CPlane() *CPlane { return s.cp }

// Metrics returns the service's control-plane counters.
func (s *Service) Metrics() *Metrics { return &s.metrics }

// Service-level errors.
var (
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
		// Decoded into scratch from this hop's copy, which it forwards with its
		// accumulator written in; the response is never part of the scratch.
		sc := s.getWave()
		defer s.putWave(sc)
		sc.fwd = append(sc.fwd[:0], data...)
		req := &sc.seg
		if err := req.unmarshal(sc.fwd); err != nil {
			return nil, err
		}
		idx, out, err := s.wireHop(hopIndex(req.Path, s.ia), refuseSeg)
		if idx == 0 {
			return out, err
		}
		return s.processSegSetup(sc, idx, min(req.AccumKbps, req.MaxKbps)), nil
	case tagSegActivate:
		// Decoded into scratch, and forwarded as received: the hop changes
		// nothing in it.
		sc := s.getWave()
		defer s.putWave(sc)
		req := &sc.act
		if err := req.unmarshal(data); err != nil {
			return nil, err
		}
		idx, out, err := s.wireHop(hopIndex(req.Path, s.ia), refuseSeg)
		if idx == 0 {
			return out, err
		}
		return s.processSegActivate(req, idx), nil
	case tagEESetup, tagEERenew:
		// Checked where it lies, then read from this hop's copy, which it
		// forwards; the response is never part of the scratch.
		sc := s.getWave()
		defer s.putWave(sc)
		v := &sc.soloV
		if err := v.load(data); err != nil {
			return nil, err
		}
		idx, out, err := s.wireHop(v.index(s.ia), refuseEE)
		if idx == 0 {
			return out, err
		}
		sc.fwd = append(sc.fwd[:0], data...)
		v.msg = sc.fwd
		return s.processEESetup(sc, idx, min(v.accum(), v.bw())), nil
	case tagEEBatchRenew:
		// The wave's copy and everything derived from it live in scratch that
		// goes back to the service once this hop has sealed its blob; the
		// response is never part of it.
		sc := s.getWave()
		defer s.putWave(sc)
		w := &sc.wave
		if err := w.load(data); err != nil {
			return nil, err
		}
		idx, out, err := s.wireHop(w.index(s.ia), refuseWave)
		if idx == 0 {
			return out, err
		}
		sc.fwd = append(sc.fwd[:0], data...)
		w.msg = sc.fwd
		return s.processEEBatchRenew(sc, idx), nil
	case tagDownReq:
		sc := s.getWave()
		defer s.putWave(sc)
		if err := sc.down.unmarshal(data); err != nil {
			return nil, err
		}
		return s.handleDownReq(&sc.down), nil
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

// Tick advances housekeeping: the CPlane's (EER expiry, SegR version
// switches, lapsed SegRs dropped with what rides on them), the withdrawal of
// the dropped SegRs' offers, and the directory's and policy's.
// Call it periodically (once per second suffices).
func (s *Service) Tick() {
	now := s.clock()
	_, dropped := s.cp.tick()
	if s.dir != nil {
		for _, id := range dropped {
			s.dir.Unregister(id)
		}
		s.dir.Expire(now)
	}
	s.policy.Expire(now)
}
