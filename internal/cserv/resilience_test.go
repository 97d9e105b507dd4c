package cserv

import (
	"errors"
	"testing"

	"colibri/internal/topology"
)

// flakyTransport fails the first n calls, then delegates.
type flakyTransport struct {
	inner Transport
	fails int
	calls int
}

func (f *flakyTransport) Call(dst topology.IA, msg []byte) ([]byte, error) {
	f.calls++
	if f.fails > 0 {
		f.fails--
		return nil, errors.New("flaky: injected failure")
	}
	if f.inner == nil {
		return []byte("ok"), nil
	}
	return f.inner.Call(dst, msg)
}

func TestRetryTransportRetriesUntilSuccess(t *testing.T) {
	inner := &flakyTransport{fails: 2}
	rt := NewRetryTransport(inner, RetryPolicy{}, nil)
	resp, err := rt.Call(ia(1, 1), []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok" {
		t.Fatalf("resp %q", resp)
	}
	if inner.calls != 3 || rt.Attempts.Value() != 3 || rt.Retries.Value() != 2 {
		t.Fatalf("calls=%d attempts=%d retries=%d, want 3/3/2",
			inner.calls, rt.Attempts.Value(), rt.Retries.Value())
	}
}

func TestRetryTransportDeadline(t *testing.T) {
	inner := &flakyTransport{fails: 1 << 30}
	rt := NewRetryTransport(inner, RetryPolicy{
		MaxAttempts: 10, BaseBackoffNs: 400e6, DeadlineNs: 1e9,
	}, nil)
	_, err := rt.Call(ia(1, 1), []byte{1})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if rt.Timeouts.Value() != 1 {
		t.Fatalf("Timeouts=%d, want 1", rt.Timeouts.Value())
	}
	// The 400 ms base backoff doubles: waits alone blow the 1 s deadline
	// well before 10 attempts.
	if inner.calls >= 10 {
		t.Fatalf("deadline did not bound attempts: %d calls", inner.calls)
	}
}

// TestRetryTransportDeadlineWithNowOnly is the regression for the
// mixed-clock accounting bug: with a Now hook but NO Sleep hook (an
// instantaneous in-process transport observed through a virtual clock that
// backoff cannot advance), waits used to be credited to a private clock the
// deadline check never read, so DeadlineNs could not trip from backoff and
// the loop always ran to ErrExhausted.
func TestRetryTransportDeadlineWithNowOnly(t *testing.T) {
	inner := &flakyTransport{fails: 1 << 30}
	rt := NewRetryTransport(inner, RetryPolicy{
		MaxAttempts: 10, BaseBackoffNs: 400e6, MaxBackoffNs: 400e6, DeadlineNs: 1e9,
	}, nil)
	rt.Now = func() int64 { return 42 } // static: calls are instantaneous
	_, err := rt.Call(ia(1, 1), []byte{1})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline (backoff must count against the deadline)", err)
	}
	if inner.calls >= 10 {
		t.Fatalf("deadline did not bound attempts: %d calls", inner.calls)
	}
}

// TestRetryTransportDeadlineWithSleepOnly covers the mirrored mix: a Sleep
// hook with no Now hook (nothing to read time from) must still account
// waits locally.
func TestRetryTransportDeadlineWithSleepOnly(t *testing.T) {
	inner := &flakyTransport{fails: 1 << 30}
	rt := NewRetryTransport(inner, RetryPolicy{
		MaxAttempts: 10, BaseBackoffNs: 400e6, MaxBackoffNs: 400e6, DeadlineNs: 1e9,
	}, nil)
	var slept int64
	rt.Sleep = func(d int64) { slept += d }
	_, err := rt.Call(ia(1, 1), []byte{1})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if slept == 0 {
		t.Fatal("Sleep hook never invoked")
	}
}

func TestRetryTransportExhausted(t *testing.T) {
	inner := &flakyTransport{fails: 1 << 30}
	rt := NewRetryTransport(inner, RetryPolicy{
		MaxAttempts: 3, BaseBackoffNs: 10, MaxBackoffNs: 20, DeadlineNs: 1e18,
	}, nil)
	_, err := rt.Call(ia(1, 1), []byte{1})
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if inner.calls != 3 || rt.Exhausted.Value() != 1 {
		t.Fatalf("calls=%d exhausted=%d, want 3/1", inner.calls, rt.Exhausted.Value())
	}
}

// backoffSchedule runs a failing call and records the virtual-time waits.
func backoffSchedule(seed uint64) []int64 {
	var waits []int64
	rt := NewRetryTransport(&flakyTransport{fails: 1 << 30}, RetryPolicy{
		MaxAttempts: 5, BaseBackoffNs: 50e6, MaxBackoffNs: 400e6, DeadlineNs: 1e18, Seed: seed,
	}, nil)
	rt.Sleep = func(d int64) { waits = append(waits, d) }
	_, _ = rt.Call(ia(1, 1), []byte{9, 9})
	return waits
}

func TestRetryBackoffDeterministicJitter(t *testing.T) {
	a, b := backoffSchedule(1), backoffSchedule(1)
	if len(a) != 4 {
		t.Fatalf("%d waits for 5 attempts", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule: %v vs %v", a, b)
		}
	}
	c := backoffSchedule(2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical jitter: %v", a)
	}
	// Exponential envelope: each wait sits in [backoff, 1.5*backoff] for
	// backoff = 50, 100, 200, 400 ms.
	base := int64(50e6)
	for i, w := range a {
		if w < base || w > base+base/2 {
			t.Fatalf("wait %d = %dns outside [%d, %d]", i, w, base, base+base/2)
		}
		if base < 400e6 {
			base *= 2
		}
	}
}

// lossyResponses completes calls downstream but, while armed, pretends the
// response was lost on the way back — once per distinct message. This is
// the partial-failure mode that leaves downstream hops committed.
type lossyResponses struct {
	inner Transport
	armed bool
	seen  map[string]bool
	drops int
}

func (l *lossyResponses) Call(dst topology.IA, msg []byte) ([]byte, error) {
	resp, err := l.inner.Call(dst, msg)
	if err != nil || !l.armed {
		return resp, err
	}
	if l.seen == nil {
		l.seen = make(map[string]bool)
	}
	k := string(msg)
	if !l.seen[k] {
		l.seen[k] = true
		l.drops++
		return nil, errors.New("lossy: response lost")
	}
	return resp, nil
}

// retriedFabric builds a TwoISD fabric whose 1-11 CServ speaks through a
// response-losing link wrapped in a RetryTransport.
func retriedFabric(t *testing.T) (*fabric, *lossyResponses) {
	lossy := &lossyResponses{}
	f := twoISDFabric(t, func(iaKey topology.IA, cfg *Config) {
		if iaKey == ia(1, 11) {
			lossy.inner = cfg.Transport
			cfg.Transport = NewRetryTransport(lossy, RetryPolicy{}, nil)
		}
	})
	return f, lossy
}

func TestRetriedSetupIsDeduplicated(t *testing.T) {
	f, lossy := retriedFabric(t)
	lossy.armed = true
	seg := f.reg.UpSegments(ia(1, 11))[0] // 1-11 → 1-2 → 1-1
	segr, err := f.services[ia(1, 11)].SetupSegment(seg, 1000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.drops == 0 {
		t.Fatal("test did not exercise a lost response")
	}
	if segr.Active.BwKbps != 50_000 {
		t.Fatalf("granted %d", segr.Active.BwKbps)
	}
	dedup := uint64(0)
	for _, h := range seg.Hops {
		s := f.services[h.IA]
		r, err := s.Store().GetSegR(segr.ID)
		if err != nil {
			t.Fatalf("AS %s missing SegR after retried setup: %v", h.IA, err)
		}
		if r.Active.Ver != 1 || r.Active.BwKbps != 50_000 {
			t.Fatalf("AS %s stored %+v", h.IA, r.Active)
		}
		// The retry must not double-charge admission: exactly the final
		// grant is allocated at the egress tube.
		if h.Eg != 0 {
			if got := s.CPlane().AllocatedKbps(h.Eg); got != 50_000 {
				t.Fatalf("AS %s allocated %d kbps at eg %d, want 50000", h.IA, got, h.Eg)
			}
		}
		dedup += s.Metrics().DedupHits.Value()
	}
	if dedup == 0 {
		t.Fatal("no dedup hits recorded on a retried setup")
	}
}

func TestRetriedRenewAndActivateAreDeduplicated(t *testing.T) {
	f, lossy := retriedFabric(t)
	seg := f.reg.UpSegments(ia(1, 11))[0]
	src := f.services[ia(1, 11)]
	segr, err := src.SetupSegment(seg, 1000, 50_000)
	if err != nil {
		t.Fatal(err)
	}

	lossy.armed = true // every new message loses its first response
	ver, final, err := src.RenewSegment(segr.ID, 0, 50_000)
	if err != nil {
		t.Fatalf("retried renewal failed: %v", err)
	}
	if ver != 2 || final != 50_000 {
		t.Fatalf("renewal gave ver %d bw %d", ver, final)
	}
	for _, h := range seg.Hops {
		r, _ := f.services[h.IA].Store().GetSegR(segr.ID)
		if r.Pending == nil || r.Pending.Ver != 2 || r.Pending.BwKbps != 50_000 {
			t.Fatalf("AS %s pending %+v after retried renewal", h.IA, r.Pending)
		}
		if h.Eg != 0 {
			if got := f.services[h.IA].CPlane().AllocatedKbps(h.Eg); got != 50_000 {
				t.Fatalf("AS %s allocated %d kbps after retried renewal", h.IA, got)
			}
		}
	}

	if err := src.ActivateSegment(segr.ID, ver); err != nil {
		t.Fatalf("retried activation failed: %v", err)
	}
	for _, h := range seg.Hops {
		r, _ := f.services[h.IA].Store().GetSegR(segr.ID)
		if r.Active.Ver != 2 || r.Pending != nil {
			t.Fatalf("AS %s active %+v pending %v after retried activation", h.IA, r.Active, r.Pending)
		}
	}
	if lossy.drops < 2 {
		t.Fatalf("only %d responses lost; renewal+activation should each lose one", lossy.drops)
	}
}

// failTag fails the first n calls carrying the given message tag.
type failTag struct {
	inner Transport
	tag   byte
	fails int
}

func (ft *failTag) Call(dst topology.IA, msg []byte) ([]byte, error) {
	if ft.fails > 0 && len(msg) > 0 && msg[0] == ft.tag {
		ft.fails--
		return nil, errors.New("injected: transport down")
	}
	return ft.inner.Call(dst, msg)
}

func TestAutoRenewRecoversFromActivationFailure(t *testing.T) {
	ft := &failTag{tag: tagSegActivate}
	f := twoISDFabric(t, func(iaKey topology.IA, cfg *Config) {
		if iaKey == ia(1, 11) {
			ft.inner = cfg.Transport
			cfg.Transport = ft
		}
	})
	seg := f.reg.UpSegments(ia(1, 11))[0]
	src := f.services[ia(1, 11)]
	segr, err := src.SetupSegment(seg, 0, 10_000)
	if err != nil {
		t.Fatal(err)
	}

	f.clock.Store(t0 + 250) // active expires at t0+300: due with lead 60
	ft.fails = 1
	renewed, err := src.AutoRenew(60, nil)
	if err == nil || renewed != 0 {
		t.Fatalf("pass 1: renewed=%d err=%v, want activation failure", renewed, err)
	}
	cur, _ := src.Store().GetSegR(segr.ID)
	if cur.Pending == nil {
		t.Fatal("pass 1 should leave the renewed version pending")
	}

	// The stranding bug: with due-selection requiring Pending == nil, this
	// second pass would skip the SegR forever and the reservation would
	// expire. It must instead retry the activation and recover.
	renewed, err = src.AutoRenew(60, nil)
	if err != nil || renewed != 1 {
		t.Fatalf("pass 2: renewed=%d err=%v, want clean recovery", renewed, err)
	}
	cur, _ = src.Store().GetSegR(segr.ID)
	if cur.Active.Ver != 2 || cur.Pending != nil {
		t.Fatalf("after recovery: active %+v pending %v", cur.Active, cur.Pending)
	}
	for _, h := range seg.Hops {
		r, _ := f.services[h.IA].Store().GetSegR(segr.ID)
		if r.Active.Ver != 2 {
			t.Fatalf("AS %s still on version %d", h.IA, r.Active.Ver)
		}
	}
}

// setTubeCap overrides the capacity of the (in, eg) tube in every shard's
// admitter of the service.
func setTubeCap(s *Service, in, eg topology.IfID, capKbps uint64) {
	for _, sh := range s.cp.shards {
		sh.mu.Lock()
		sh.adm.SetTubeCapKbps(in, eg, capKbps)
		sh.mu.Unlock()
	}
}

func TestAutoRenewZeroGrantKeepsOldVersion(t *testing.T) {
	f := twoISDFabric(t, nil)
	seg := f.reg.UpSegments(ia(1, 11))[0]
	src := f.services[ia(1, 11)]
	segr, err := src.SetupSegment(seg, 0, 10_000)
	if err != nil {
		t.Fatal(err)
	}

	// Choke the transit AS: its tube now has zero capacity, so the renewal
	// is "admitted" with a zero-bandwidth grant (legal when MinKbps == 0).
	transit := seg.Hops[1]
	setTubeCap(f.services[transit.IA], transit.In, transit.Eg, 0)

	f.clock.Store(t0 + 250)
	renewed, err := src.AutoRenew(60, nil)
	if !errors.Is(err, ErrZeroGrant) || renewed != 0 {
		t.Fatalf("renewed=%d err=%v, want ErrZeroGrant", renewed, err)
	}
	cur, _ := src.Store().GetSegR(segr.ID)
	if cur.Active.Ver != 1 || cur.Active.BwKbps != 10_000 {
		t.Fatalf("old version not kept: %+v", cur.Active)
	}
	if cur.Pending != nil {
		t.Fatal("dead zero-bandwidth pending not cleared")
	}
	if src.Metrics().RenewZeroBw.Value() != 1 {
		t.Fatalf("RenewZeroBw=%d, want 1", src.Metrics().RenewZeroBw.Value())
	}

	// Capacity returns: the next pass renews and activates normally.
	setTubeCap(f.services[transit.IA], transit.In, transit.Eg, 30_000_000)
	f.clock.Store(t0 + 251)
	renewed, err = src.AutoRenew(60, nil)
	if err != nil || renewed != 1 {
		t.Fatalf("recovery pass: renewed=%d err=%v", renewed, err)
	}
	cur, _ = src.Store().GetSegR(segr.ID)
	if cur.Active.Ver != 2 || cur.Active.BwKbps != 10_000 {
		t.Fatalf("recovery produced %+v", cur.Active)
	}
}
