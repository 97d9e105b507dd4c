package cserv

import (
	"errors"
	"sync"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/topology"
)

// TestRateTokenExact: eight handlers at once take tokens for one source at
// one hop through authHop, over three seconds that straddle a DRKey epoch
// boundary. Each second grants exactly RateLimit requests and refuses the
// rest, counted as rate-limited — at the epoch's first second too, where all
// eight miss the key cache together and race to build the new epoch's entry.
func TestRateTokenExact(t *testing.T) {
	const perSec, epochSecs, workers, tries = 500, 4, 8, 100
	f := epochFabric(t, topology.TwoISD(topology.LinkSpec{}), epochSecs, func(_ topology.IA, cfg *Config) { cfg.RateLimit = perSec })
	src, hop := f.services[ia(1, 11)], f.services[ia(1, 1)]
	path := []PathHop{{IA: src.ia}, {IA: hop.ia}}
	body := []byte("one control request")
	ep := hop.engine.EpochAt(f.now())
	for now := ep.End - 1; now <= ep.End+1; now++ {
		f.clock.Store(now)
		macs := signFor(t, src, path, body)
		limited := hop.Metrics().RateLimited.Value()
		var mu sync.Mutex
		codes := map[Refusal]int{}
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range tries {
					_, code := hop.authHop(src.ia, body, &macs[1], 1)
					mu.Lock()
					codes[code]++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if codes[Granted] != perSec || codes[RefusedRateLimit] != workers*tries-perSec {
			t.Fatalf("second %d (epoch %v): %v, want %d granted and %d rate-limited", now, hop.engine.EpochAt(now), codes, perSec, workers*tries-perSec)
		}
		if got := hop.Metrics().RateLimited.Value() - limited; got != uint64(workers*tries-perSec) {
			t.Fatalf("second %d: %d refusals counted, %d made", now, got, workers*tries-perSec)
		}
	}
}

// TestKeyProbeFollowsEpochs: with 4-second DRKey epochs, 1-11 renews every
// second across two epoch boundaries, in waves and solo. Every renewal
// authenticates at every hop, and the source fetches each on-path AS's key
// again exactly when the one it holds has ended: one key-server query per
// remote hop at each boundary, none in between.
func TestKeyProbeFollowsEpochs(t *testing.T) {
	const epochSecs = 4
	f := epochFabric(t, topology.TwoISD(topology.LinkSpec{}), epochSecs, func(iaKey topology.IA, cfg *Config) {
		cfg.CPlaneShards = 4
		highRate(iaKey, cfg)
	})
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	gs := requestEERs(t, src, 4, 100)
	bws := []uint64{100, 100, 100, 100}
	remote := 0
	for _, ph := range gs[0].PathHops {
		if ph.IA != src.ia {
			remote++
		}
	}
	for round := range 3 * epochSecs {
		f.clock.Add(1)
		now := f.now()
		queries := f.keyQueries.Load()
		if round%2 == 0 {
			var errs []error
			if gs, errs = src.RenewEERBatch(gs, bws); errors.Join(errs...) != nil {
				t.Fatalf("second %d: wave: %v", now, errors.Join(errs...))
			}
		} else {
			g, err := src.RenewEER(gs[0], 100)
			if err != nil {
				t.Fatalf("second %d: solo renewal: %v", now, err)
			}
			gs[0] = g
		}
		for _, g := range gs {
			checkHopAuths(t, f, g)
		}
		want := 0
		if now%epochSecs == 0 {
			want = remote
		}
		if got := f.keyQueries.Load() - queries; got != int64(want) {
			t.Fatalf("second %d (epoch %v): %d key-server queries, want %d", now, src.engine.EpochAt(now), got, want)
		}
		for _, ph := range gs[0].PathHops[1:] {
			if kc := src.peek(keyName{ia: ph.IA, fetched: true}); kc == nil || !kc.epoch.Contains(now) {
				t.Fatalf("second %d: key of %s cached %v", now, ph.IA, kc)
			}
		}
	}
}

// TestKeyProbeRacesEvictions: handlers probe one service's key cache for a few
// hot sources and for fetched hop keys while another names fresh source ASes
// one after another, so that past the first 64 every insertion evicts an entry
// and shifts the table under the probes. Every probe returns the crypto of
// the key it asked for, under its own name; afterwards the table and the ring
// agree. Under -race this is the hit path's only test of taking no lock.
func TestKeyProbeRacesEvictions(t *testing.T) {
	f := cpFabric(t, 1, highRate)
	s := f.services[ia(1, 1)]
	now := f.now()
	hot := []topology.IA{ia(1, 11), ia(1, 2), ia(2, 11), ia(2, 1)}
	want := map[topology.IA]cryptoutil.Key{}
	for _, src := range hot {
		want[src], _ = s.engine.Level1(src, now)
	}
	fetched := []topology.IA{ia(1, 11), ia(2, 1)}
	fetchedKey := map[topology.IA]cryptoutil.Key{}
	for _, h := range fetched {
		kc, err := s.hopKey(h, now)
		if err != nil {
			t.Fatal(err)
		}
		fetchedKey[h] = kc.key
	}
	const probes, cold = 4000, 1000
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range probes {
				src := hot[(i+w)%len(hot)]
				if kc := s.ownCrypto(src, now); kc.name != (keyName{ia: src, epoch: s.engine.EpochAt(now).Begin}) || kc.key != want[src] {
					errs <- errors.New("K_{me→" + src.String() + "} probe returned another key's crypto")
					return
				}
				h := fetched[i%len(fetched)]
				if kc, err := s.hopKey(h, now); err != nil || kc.name != (keyName{ia: h, fetched: true}) || kc.key != fetchedKey[h] {
					errs <- errors.New("K_{" + h.String() + "→me} probe returned another key's crypto")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range cold {
			s.ownCrypto(topology.MustIA(3, topology.ASID(100+i)), now)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, n := s.cachedCrypto(cryptoutil.Key{}); n < 0 || n > keyCacheSize {
		t.Fatalf("after the race the cache holds %d entries (-1: table and ring disagree)", n)
	}
}
