package drkey

import (
	"errors"
	"testing"
	"testing/quick"

	"colibri/internal/cryptoutil"
	"colibri/internal/topology"
)

func ia(isd topology.ISD, as topology.ASID) topology.IA { return topology.MustIA(isd, as) }

func TestEpochAt(t *testing.T) {
	e := NewEngine(ia(1, 1), cryptoutil.Key{1}, 100)
	ep := e.EpochAt(250)
	if ep.Begin != 200 || ep.End != 300 {
		t.Errorf("EpochAt(250) = %v", ep)
	}
	if !ep.Contains(250) || !ep.Contains(200) || ep.Contains(300) || ep.Contains(199) {
		t.Error("Contains boundaries wrong")
	}
}

func TestSecretValueStablePerEpoch(t *testing.T) {
	e := NewEngine(ia(1, 1), cryptoutil.Key{1}, 100)
	sv1, ep1 := e.SecretValue(210)
	sv2, ep2 := e.SecretValue(299)
	if sv1 != sv2 || ep1 != ep2 {
		t.Error("secret value changed within one epoch")
	}
	sv3, _ := e.SecretValue(300)
	if sv1 == sv3 {
		t.Error("secret value did not rotate at epoch boundary")
	}
	// Going back to a previous epoch re-derives the same value.
	sv4, _ := e.SecretValue(250)
	if sv4 != sv1 {
		t.Error("re-derived secret value differs")
	}
}

func TestLevel1Properties(t *testing.T) {
	e := NewEngine(ia(1, 1), cryptoutil.Key{42}, 1000)
	kB, _ := e.Level1(ia(1, 2), 500)
	kB2, _ := e.Level1(ia(1, 2), 999)
	if kB != kB2 {
		t.Error("level-1 key not stable within epoch")
	}
	kC, _ := e.Level1(ia(1, 3), 500)
	if kB == kC {
		t.Error("level-1 keys for different peers collide")
	}
	e2 := NewEngine(ia(1, 1), cryptoutil.Key{43}, 1000)
	kB3, _ := e2.Level1(ia(1, 2), 500)
	if kB == kB3 {
		t.Error("different masters derive identical keys")
	}
}

func TestLevel1QuickNoCollisions(t *testing.T) {
	e := NewEngine(ia(1, 1), RandomMaster(), 1000)
	f := func(a, b uint32) bool {
		ka, _ := e.Level1(ia(1, topology.ASID(a)), 100)
		kb, _ := e.Level1(ia(1, topology.ASID(b)), 100)
		return (a == b) == (ka == kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHostKeyDerivation(t *testing.T) {
	base := cryptoutil.Key{7}
	k1 := HostKey(base, 1, 100)
	k2 := HostKey(base, 1, 100)
	k3 := HostKey(base, 1, 101)
	k4 := HostKey(base, 2, 100)
	if k1 != k2 {
		t.Error("host key not deterministic")
	}
	if k1 == k3 || k1 == k4 || k3 == k4 {
		t.Error("host keys collide across host/proto")
	}
}

// directTransport routes fetch requests to in-process servers.
type directTransport map[topology.IA]*Server

func (d directTransport) QueryKeyServer(dst topology.IA, req []byte) ([]byte, error) {
	s, ok := d[dst]
	if !ok {
		return nil, errors.New("no route")
	}
	return s.Handle(req)
}

func setupPair(t *testing.T) (*Engine, *Server, *Store, directTransport, *TrustStore) {
	t.Helper()
	a, b := ia(1, 1), ia(1, 2)
	engA := NewEngine(a, RandomMaster(), 0)
	idA := NewIdentity(a)
	srvA := NewServer(engA, idA)
	trust := NewTrustStore(idA)
	tr := directTransport{a: srvA}
	store := NewStore(b, tr, trust)
	return engA, srvA, store, tr, trust
}

func TestFetchMatchesDerivation(t *testing.T) {
	engA, _, store, _, _ := setupPair(t)
	const now = 1_700_000_000
	got, err := store.Get(engA.IA(), now)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := engA.Level1(ia(1, 2), now)
	if got != want {
		t.Errorf("fetched key %x != derived %x", got, want)
	}
}

func TestStoreCaches(t *testing.T) {
	engA, srvA, store, tr, _ := setupPair(t)
	const now = 1_700_000_000
	if _, err := store.Get(engA.IA(), now); err != nil {
		t.Fatal(err)
	}
	if store.CachedCount() != 1 {
		t.Fatalf("cache count = %d", store.CachedCount())
	}
	// Break the transport: cached epochs must still serve.
	delete(tr, engA.IA())
	if _, err := store.Get(engA.IA(), now+1000); err != nil {
		t.Errorf("cached key not served: %v", err)
	}
	// After epoch expiry the fetch must happen again and fail.
	if _, err := store.Get(engA.IA(), now+2*DefaultEpochSeconds); err == nil {
		t.Error("expected fetch failure after epoch expiry")
	}
	_ = srvA
}

func TestFetchRejectsForgedSignature(t *testing.T) {
	a, b := ia(1, 1), ia(1, 2)
	engA := NewEngine(a, RandomMaster(), 0)
	idA := NewIdentity(a)
	srvA := NewServer(engA, idA)
	// Trust store holds a *different* key for A: the signature must fail.
	wrongID := NewIdentity(a)
	trust := NewTrustStore(wrongID)
	store := NewStore(b, directTransport{a: srvA}, trust)
	if _, err := store.Get(a, 1000); !errors.Is(err, ErrBadSig) {
		t.Errorf("want ErrBadSig, got %v", err)
	}
}

func TestFetchRejectsTamperedResponse(t *testing.T) {
	a, b := ia(1, 1), ia(1, 2)
	engA := NewEngine(a, RandomMaster(), 0)
	idA := NewIdentity(a)
	srvA := NewServer(engA, idA)
	trust := NewTrustStore(idA)
	tamper := transportFunc(func(dst topology.IA, req []byte) ([]byte, error) {
		res, err := srvA.Handle(req)
		if err != nil {
			return nil, err
		}
		res[50] ^= 0xff // flip a ciphertext bit
		return res, nil
	})
	store := NewStore(b, tamper, trust)
	if _, err := store.Get(a, 1000); err == nil {
		t.Error("tampered response accepted")
	}
}

type transportFunc func(dst topology.IA, req []byte) ([]byte, error)

func (f transportFunc) QueryKeyServer(dst topology.IA, req []byte) ([]byte, error) {
	return f(dst, req)
}

func TestServerRejectsMalformedRequests(t *testing.T) {
	engA := NewEngine(ia(1, 1), RandomMaster(), 0)
	srv := NewServer(engA, NewIdentity(ia(1, 1)))
	if _, err := srv.Handle(nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("nil request: %v", err)
	}
	if _, err := srv.Handle(make([]byte, 10)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("short request: %v", err)
	}
	bad := make([]byte, reqLen) // all-zero X25519 point is low order → rejected
	if _, err := srv.Handle(bad); err == nil {
		t.Error("all-zero public key accepted")
	}
}

// TestPrefetch warms a store's cache for several sources: each fetched key
// is cached, and an unreachable source reports its error.
func TestPrefetch(t *testing.T) {
	a, b, c := ia(1, 1), ia(1, 2), ia(1, 3)
	engA := NewEngine(a, RandomMaster(), 0)
	engC := NewEngine(c, RandomMaster(), 0)
	idA, idC := NewIdentity(a), NewIdentity(c)
	trust := NewTrustStore(idA, idC)
	tr := directTransport{a: NewServer(engA, idA), c: NewServer(engC, idC)}
	store := NewStore(b, tr, trust)
	for _, src := range []topology.IA{a, c} {
		if _, err := store.Get(src, 1000); err != nil {
			t.Fatal(err)
		}
	}
	if store.CachedCount() != 2 {
		t.Errorf("cache count = %d, want 2", store.CachedCount())
	}
	// Warming an unreachable source reports the error.
	if _, err := store.Get(ia(9, 9), 1000); err == nil {
		t.Error("expected error for unreachable source")
	}
}

func TestNewServerPanicsOnIAMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewServer(NewEngine(ia(1, 1), RandomMaster(), 0), NewIdentity(ia(1, 2)))
}

func BenchmarkLevel1Derivation(b *testing.B) {
	e := NewEngine(ia(1, 1), RandomMaster(), 0)
	e.SecretValue(1000) // warm the epoch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Level1(ia(1, topology.ASID(i%1000)), 1000)
	}
}
