// wave_test.go — what a tag-7 renewal wave must keep true while it pays its
// per-wave costs once: the codec bounds its counts before it allocates, the
// fused forward pass decides exactly what the per-item sequence decides,
// nonces never repeat, grants own their bytes, allocations per item stay
// pinned, and the per-service key cache and scratch survive concurrent
// handlers.
package cserv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"colibri/internal/admission"
	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// The 9-byte pre-auth crashers: an empty chain and an item count of 2²⁴ (the
// parent sized three slices by it before reading a single item: 768 MiB).
var (
	reqCountCrasher  = []byte{tagEEBatchRenew, 0, 0, 0, 0, 0x01, 0, 0, 0}
	respCountCrasher = []byte{1, 0, 0, 0, 0x01, 0, 0, 0, 0}
)

// allocatedBy runs fn and returns the bytes it allocates, the least of three
// runs: the counter is process-wide, so whatever else allocates meanwhile
// (another test's leftover goroutine, the runtime under CPU contention) only
// adds. Under the race detector, whose own allocations land in that counter
// too, it runs fn once and reports counted false: the caller skips its byte
// bound and keeps every other check.
func allocatedBy(fn func()) (bytes uint64, counted bool) {
	if raceEnabled {
		fn()
		return 0, false
	}
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least, true
}

// TestEEBatchCodecCountBound is the regression test of the pre-auth memory
// DoS: a count the message cannot back with bytes is ErrTruncated, and what a
// decoder allocates is bounded by the message's own length.
func TestEEBatchCodecCountBound(t *testing.T) {
	huge := func(msg []byte, at int, n uint32) []byte {
		m := append([]byte(nil), msg...)
		binary.BigEndian.PutUint32(m[at:], n)
		return m
	}
	// A response whose item count is honest and whose blob count is not.
	respBlobs := func(nb byte) []byte { return []byte{1, 0, 0, 0, 0, 0, 0, 0, nb} }
	for name, tc := range map[string]struct {
		msg    []byte
		decode func([]byte) error
	}{
		"req n=2^24":       {reqCountCrasher, func(b []byte) error { _, err := UnmarshalEEBatchRenewReq(b); return err }},
		"req n=2^32-1":     {huge(reqCountCrasher, 5, 1<<32-1), func(b []byte) error { _, err := UnmarshalEEBatchRenewReq(b); return err }},
		"resp n=2^24":      {respCountCrasher, func(b []byte) error { _, err := UnmarshalEEBatchRenewResp(b); return err }},
		"resp n=2^32-1":    {huge(respCountCrasher, 4, 1<<32-1), func(b []byte) error { _, err := UnmarshalEEBatchRenewResp(b); return err }},
		"resp blobs=32":    {respBlobs(32), func(b []byte) error { _, err := UnmarshalEEBatchRenewResp(b); return err }},
		"resp blobs=255":   {respBlobs(255), func(b []byte) error { _, err := UnmarshalEEBatchRenewResp(b); return err }},
		"resp a blob less": {append(respBlobs(2), make([]byte, blobLen(0))...), func(b []byte) error { _, err := UnmarshalEEBatchRenewResp(b); return err }},
	} {
		var err error
		got, counted := allocatedBy(func() { err = tc.decode(tc.msg) })
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", name, err)
		}
		if counted && got > 4096 {
			t.Errorf("%s: a %d-byte message made the decoder allocate %d bytes", name, len(tc.msg), got)
		}
	}
	// An honest large wave decodes in memory proportional to its size.
	req := &EEBatchRenewReq{Path: make([]PathHop, 5), Macs: make([][16]byte, 5)}
	for i := 0; i < 4096; i++ {
		req.Items = append(req.Items, EEBatchItem{ID: reservation.ID{SrcAS: ia(1, 11), Num: uint32(i)}})
		req.Accums = append(req.Accums, 1)
		req.Status = append(req.Status, EEItemOK)
	}
	msg := req.Marshal()
	if got, counted := allocatedBy(func() { _, _ = UnmarshalEEBatchRenewReq(msg) }); counted && got > 4*uint64(len(msg)) {
		t.Errorf("a %d-byte wave made the decoder allocate %d bytes", len(msg), got)
	}
}

// TestEEBatchRespCanonicalOnly: the tag-7 response decoder accepts exactly
// what Marshal produces — one blob per count, each exactly as long as the
// status vector's live items make it, nothing after the last, an OK byte of 0
// or 1 — so that every accepted response has one encoding.
func TestEEBatchRespCanonicalOnly(t *testing.T) {
	resp := &EEBatchRenewResp{OK: true, Granted: []uint64{5, 0, 7}, Status: []uint8{EEItemOK, EEItemStale, EEItemOK}}
	for range 3 {
		resp.Blobs = append(resp.Blobs, bytes.Repeat([]byte{byte(len(resp.Blobs))}, blobLen(2)))
	}
	good := resp.Marshal()
	got, err := UnmarshalEEBatchRenewResp(good)
	if err != nil || len(got.Blobs) != 3 || !bytes.Equal(got.Blobs[2], resp.Blobs[2]) {
		t.Fatalf("%+v, %v", got, err)
	}
	statusAt := 2 + 2 + 4 + 8 // the first item's status
	for name, tc := range map[string]struct {
		msg  []byte
		want error
	}{
		"OK byte 2":           {append([]byte{2}, good[1:]...), ErrNotCanonical},
		"trailing byte":       {append(bytes.Clone(good), 0), ErrNotCanonical},
		"one byte short":      {good[:len(good)-1], ErrTruncated},
		"an item more live":   {func() []byte { m := bytes.Clone(good); m[statusAt+eeBatchTailLen] = EEItemOK; return m }(), ErrTruncated},
		"an item fewer live":  {func() []byte { m := bytes.Clone(good); m[statusAt] = EEItemRefused; return m }(), ErrNotCanonical},
		"a blob count less":   {func() []byte { m := bytes.Clone(good); m[statusAt+3*eeBatchTailLen-8] = 2; return m }(), ErrNotCanonical},
		"a blob count more":   {func() []byte { m := bytes.Clone(good); m[statusAt+3*eeBatchTailLen-8] = 4; return m }(), ErrTruncated},
		"refusal with a byte": {append((&EEBatchRenewResp{Reason: "no"}).Marshal(), 0), ErrNotCanonical},
	} {
		if _, err := UnmarshalEEBatchRenewResp(tc.msg); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}

// signedWave builds the renewal wave of prevs as the source would send it.
func signedWave(t testing.TB, src *Service, prevs []*EERGrant) *EEBatchRenewReq {
	t.Helper()
	req := &EEBatchRenewReq{SegIDs: prevs[0].SegIDs, Splits: prevs[0].Splits, Path: prevs[0].PathHops}
	for _, p := range prevs {
		req.Items = append(req.Items, EEBatchItem{
			ID: p.ID, Ver: p.Res.Ver + 1, BwKbps: uint64(p.Res.BwKbps),
			ExpT: src.clock() + reservation.EERLifetimeSeconds, SrcHost: p.EER.SrcHost, DstHost: p.EER.DstHost,
		})
		req.Accums = append(req.Accums, uint64(p.Res.BwKbps))
		req.Status = append(req.Status, EEItemOK)
	}
	signWave(t, src, req)
	return req
}

// requestEERs sets up n EERs 1-11 → 2-11 of bwKbps each.
func requestEERs(t testing.TB, src *Service, n int, bwKbps uint64) []*EERGrant {
	t.Helper()
	gs := make([]*EERGrant, n)
	for i := range gs {
		g, err := src.RequestEER(uint32(1000+i), uint32(5000+i), ia(2, 11), bwKbps)
		if err != nil {
			t.Fatalf("setup %d: %v", i, err)
		}
		gs[i] = g
	}
	return gs
}

func highRate(_ topology.IA, cfg *Config) { cfg.RateLimit = 1 << 20 }

// FuzzEEBatchRenewCodec fuzzes the tag-7 codec (ROADMAP adversarial item (a)):
// no input panics or allocates beyond its size class; what decodes re-encodes
// to the bytes it was decoded from (the response decoder is canonical-only:
// exactly those bytes); an encoding owns its bytes (the decoded form aliases
// the input, by contract); and flipping any MAC-covered byte of a signed wave
// makes it undecodable or unauthentic.
func FuzzEEBatchRenewCodec(f *testing.F) {
	tap := &tapTransport{}
	fab := cpFabric(f, 4, func(iaKey topology.IA, cfg *Config) {
		if iaKey == ia(1, 11) {
			tap.inner = cfg.Transport
			cfg.Transport = tap
		}
	})
	fab.setupAllSegRs(f, 100_000)
	src := fab.services[ia(1, 11)]
	grants := requestEERs(f, src, 3, 1_000)
	wave := signedWave(f, src, grants)
	signed := wave.Marshal()
	bodyLen := len(wave.Body())
	hop1 := fab.services[wave.Path[1].IA]
	resp := &EEBatchRenewResp{OK: true, Granted: []uint64{7, 0}, Status: []uint8{EEItemOK, EEItemStale},
		Blobs: [][]byte{make([]byte, blobLen(1)), make([]byte, blobLen(1))}}
	// A real wave's answer, one item refused at the source.
	fab.clock.Add(1)
	if _, errs := src.RenewEERBatch(grants, []uint64{1_000, 0, 500}); errs[0] != nil || errs[1] == nil {
		f.Fatalf("wave: %v", errs)
	}

	f.Add(reqCountCrasher, uint16(0))
	f.Add(respCountCrasher, uint16(0))
	f.Add(signed, uint16(77))
	f.Add(resp.Marshal(), uint16(3))
	f.Add(bytes.Clone(tap.last), uint16(4))
	f.Add((&EEBatchRenewResp{FailedAt: 3, Reason: "transport: down"}).Marshal(), uint16(5))
	// A wave that authenticates and names another source's EER (TestWaveItemsMustShareSource).
	f.Add(signWave(f, fab.services[ia(2, 1)], forgedWave(grants[0], []EEBatchItem{
		{ID: reservation.ID{SrcAS: ia(2, 1), Num: 1}, Ver: 1, BwKbps: 1, ExpT: t0 + 2}, wave.Items[0]})), uint16(0))
	// A signed wave with an item of 2³² kbps, which every hop refuses
	// (TestEERBandwidthAt32Bits).
	wide := wave.Items[0]
	wide.BwKbps = MaxEERKbps + 1
	f.Add(signWave(f, src, forgedWave(grants[0], []EEBatchItem{wide, wave.Items[1]})), uint16(6))
	f.Fuzz(func(t *testing.T, data []byte, flip uint16) {
		buf := append([]byte(nil), data...)
		if got, counted := allocatedBy(func() {
			_, _ = UnmarshalEEBatchRenewReq(buf)
			_, _ = UnmarshalEEBatchRenewResp(buf)
		}); counted && got > 16<<10+8*uint64(len(data)) {
			t.Fatalf("a %d-byte message made the decoders allocate %d bytes", len(data), got)
		}
		if req, err := UnmarshalEEBatchRenewReq(buf); err == nil {
			enc := req.Marshal()
			if !bytes.HasPrefix(data, enc) {
				t.Fatalf("request re-encodes to other bytes:\n%x\n%x", data, enc)
			}
			if !bytes.Equal(req.wire, data[:len(req.wire)]) || !bytes.Equal(req.Body(), req.wire[:req.bodyLen]) {
				t.Fatal("the retained wire prefix is not the body ‖ MACs encoding")
			}
		}
		if r1, err := UnmarshalEEBatchRenewResp(buf); err == nil {
			enc := r1.Marshal()
			if !bytes.Equal(enc, data) {
				t.Fatalf("response re-encodes to other bytes:\n%x\n%x", data, enc)
			}
			if len(r1.Blobs) > packet.MaxHops {
				t.Fatalf("%d blobs decoded", len(r1.Blobs))
			}
			for _, blob := range r1.Blobs {
				if len(blob) != blobLen(liveOf(r1.Status)) {
					t.Fatalf("a blob of %d bytes for %d live items", len(blob), liveOf(r1.Status))
				}
			}
			// The decoded response aliases buf; its encoding must not.
			keep := append([]byte(nil), enc...)
			for i := range buf {
				buf[i] ^= 0xff
			}
			if !bytes.Equal(enc, keep) {
				t.Fatal("a marshaled response changed when the buffer it was decoded from did")
			}
		}
		// One flipped bit in the MAC-covered part of a signed wave.
		m := append([]byte(nil), signed...)
		m[int(flip>>3)%bodyLen] ^= 1 << (flip & 7)
		var req EEBatchRenewReq
		if req.unmarshal(m) == nil && macCheck(hop1, src.ia, req.wire[:req.bodyLen], req.Macs, 1) == nil {
			t.Fatalf("bit %d of body byte %d flipped and the wave still authenticates", flip&7, int(flip>>3)%bodyLen)
		}
	})
}

// tapTransport keeps the last tag-7 response the wrapped service received,
// after handing it to tamper, when set. The service seals its own blob into
// that very buffer, so once the wave is done last holds every hop's.
type tapTransport struct {
	inner  Transport
	mu     sync.Mutex
	last   []byte
	tamper func(resp []byte)
}

func (tt *tapTransport) Call(dst topology.IA, msg []byte) ([]byte, error) {
	resp, err := tt.inner.Call(dst, msg)
	if err == nil && len(msg) > 0 && msg[0] == tagEEBatchRenew {
		tt.mu.Lock()
		if tt.tamper != nil {
			tt.tamper(resp)
		}
		tt.last = resp
		tt.mu.Unlock()
	}
	return resp, err
}

// tappedFabric is cpFabric with a tapTransport under the source 1-11.
func tappedFabric(t testing.TB, mutate func(iaKey topology.IA, cfg *Config)) (*fabric, *tapTransport) {
	tap := &tapTransport{}
	f := cpFabric(t, 4, func(iaKey topology.IA, cfg *Config) {
		highRate(iaKey, cfg)
		if mutate != nil {
			mutate(iaKey, cfg)
		}
		if iaKey == ia(1, 11) {
			tap.inner = cfg.Transport
			cfg.Transport = tap
		}
	})
	return f, tap
}

// blobSpan returns where blob h lies in resp, a marshaled tag-7 answer.
func blobSpan(t testing.TB, resp []byte, h int) (off, size int) {
	t.Helper()
	r, err := UnmarshalEEBatchRenewResp(resp)
	if err != nil || h >= len(r.Blobs) {
		t.Fatalf("answer %+v, %v: no blob %d", r, err, h)
	}
	size = blobLen(liveOf(r.Status))
	return len(resp) - (len(r.Blobs)-h)*size, size
}

func checkHopAuths(t *testing.T, f *fabric, g *EERGrant) {
	t.Helper()
	for h, ph := range g.PathHops {
		want := f.services[ph.IA].hopAuth(&g.Res, &g.EER, packet.HopField{In: ph.In, Eg: ph.Eg})
		if g.HopAuths[h] != want {
			t.Fatalf("EER %s hop %d (%s): σ mismatch", g.ID, h, ph.IA)
		}
	}
}

// TestWaveNoncesAndOwnership renews 16 waves of 256 items and checks, on the
// answers the source received, that every hop sealed its blob under its own
// nonce — one per hop per wave, no two alike over all the waves — and who owns
// a renewed grant's bytes. A grant RenewEERBatch returns owns its σs:
// scribbling over the answer buffer and running the next wave through the
// same scratch leaves it intact. A fleet keeper's version belongs to the
// fleet: NewEERKeeper copies the caller's grant, the fleet takes the keeper
// (and clears it) and copies the version into its columns once, and each
// renewal overwrites it in place — the same σ slots at the next version with
// that version's σs — and writes neither the caller's grant nor anything the
// wave's answer still backs.
func TestWaveNoncesAndOwnership(t *testing.T) {
	f, tap := tappedFabric(t, nil)
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	const n, waves = 256, 16
	grants := requestEERs(t, src, n, 100)
	bws := make([]uint64, n)
	for i := range bws {
		bws[i] = 100
	}
	seen := make(map[[cryptoutil.NonceSize]byte]bool)
	for w := range waves {
		f.clock.Add(1)
		var errs []error
		if grants, errs = src.RenewEERBatch(grants, bws); errors.Join(errs...) != nil {
			t.Fatalf("wave %d: %v", w, errors.Join(errs...))
		}
		resp, err := UnmarshalEEBatchRenewResp(tap.last)
		if err != nil || len(resp.Blobs) != len(grants[0].PathHops) {
			t.Fatalf("wave %d: answer %+v, %v", w, resp, err)
		}
		for h, blob := range resp.Blobs {
			if len(blob) != blobLen(n) {
				t.Fatalf("wave %d: hop %d's blob is %d bytes, want %d", w, h, len(blob), blobLen(n))
			}
			nonce := [cryptoutil.NonceSize]byte(blob)
			if seen[nonce] {
				t.Fatalf("wave %d: hop %d sealed under nonce %x, seen before", w, h, nonce)
			}
			seen[nonce] = true
		}
	}
	if len(seen) != waves*5 {
		t.Fatalf("%d distinct nonces, want %d (5 hops × %d waves)", len(seen), waves*5, waves)
	}
	for i := range tap.last {
		tap.last[i] = 0xff
	}
	f.clock.Add(1)
	if _, errs := src.RenewEERBatch(grants[:64], bws[:64]); errs[0] != nil {
		t.Fatal(errs[0])
	}
	for _, g := range grants {
		checkHopAuths(t, f, g)
	}

	kept := grants[64:] // the last wave renewed the others behind their grants' backs
	given := make([]EERGrant, len(kept))
	fleet := NewKeeperFleet(src)
	fleet.BatchSize = 64
	views := make([][]cryptoutil.Key, len(kept))
	for i, g := range kept {
		given[i] = *g
		given[i].HopAuths = slices.Clone(g.HopAuths)
		k := NewEERKeeper(src, &fakeInstaller{}, g, reservation.EERLifetimeSeconds)
		fleet.Add(k)
		if *k != (EERKeeper{}) {
			t.Fatalf("keeper %d: the fleet took it, but it still holds its state", i)
		}
	}
	for i := range kept {
		views[i] = fleet.Grant(i).HopAuths // the fleet's σ slots, taken once no Add can move them
	}
	for round := uint16(1); round <= 2; round++ {
		f.clock.Add(1)
		if failed := fleet.Tick(); failed != 0 {
			t.Fatalf("keeper round %d: %d renewals failed", round, failed)
		}
		for i := range tap.last {
			tap.last[i] = 0xff
		}
		for i := range fleet.Len() {
			g := fleet.Grant(i)
			if &g.HopAuths[0] != &views[i][0] || g.ID != given[i].ID || g.Res.Ver != given[i].Res.Ver+round || fleet.Renewals(i) != uint64(round) {
				t.Fatalf("keeper round %d: keeper %d serves %s at version %d from σs %p after %d renewals, want %s at %d from %p after %d",
					round, i, g.ID, g.Res.Ver, &g.HopAuths[0], fleet.Renewals(i), given[i].ID, given[i].Res.Ver+round, &views[i][0], round)
			}
			checkHopAuths(t, f, &g)
			if kept[i].Res != given[i].Res || !slices.Equal(kept[i].HopAuths, given[i].HopAuths) {
				t.Fatalf("keeper round %d: keeper %d wrote the grant it was built from", round, i)
			}
		}
	}
}

// TestWaveSealBindsHopWaveAndItems tampers with the answer a wave's source
// receives, after every hop behind it has sealed its blob. One flipped byte of
// hop h's blob, two hops' blobs swapped, a blob replayed from an earlier wave
// of the same size, and a status vector re-aligned (one live item and one the
// destination refused change places) each fail every live item of the wave
// with ErrAEADOpen and issue no grant, and every hop's books stay in
// agreement with its ledgers. The next wave, untampered, renews every EER.
func TestWaveSealBindsHopWaveAndItems(t *testing.T) {
	var vetoed uint32 // the destination host refused, once the EERs are set up
	f, tap := tappedFabric(t, func(iaKey topology.IA, cfg *Config) {
		if iaKey == ia(2, 11) {
			cfg.DstApprove = func(_ reservation.ID, _, dstHost uint32, _ uint64, _ uint32) bool { return dstHost != vetoed }
		}
	})
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	grants := requestEERs(t, src, 4, 100)
	vetoed = grants[1].EER.DstHost
	bws := []uint64{100, 100, 200, 50}
	var replay []byte // hop 3's blob of the last untampered wave
	wave := func(name string, tamper func(resp []byte), wantOK bool) {
		t.Helper()
		f.clock.Add(1)
		tap.tamper = tamper
		got, errs := src.RenewEERBatch(grants, bws)
		tap.tamper = nil
		// What the source decoded, tampering included: which items were live.
		resp, err := UnmarshalEEBatchRenewResp(tap.last)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, err := range errs {
			switch live := resp.Status[i] == EEItemOK; {
			case !live:
				if err == nil || errors.Is(err, cryptoutil.ErrAEADOpen) || got[i] != nil {
					t.Fatalf("%s: item %d, not live: grant %v, err %v", name, i, got[i], err)
				}
			case wantOK && (err != nil || i == 1):
				t.Fatalf("%s: item %d live: %v", name, i, err)
			case !wantOK && (!errors.Is(err, cryptoutil.ErrAEADOpen) || got[i] != nil):
				t.Fatalf("%s: item %d: grant %v, err %v, want ErrAEADOpen and no grant", name, i, got[i], err)
			}
		}
		for _, s := range f.services {
			auditBooks(t, s.cp, f.now(), name)
		}
		if wantOK {
			for i, g := range got {
				if g != nil {
					checkHopAuths(t, f, g)
					grants[i] = g
				}
			}
			off, size := blobSpan(t, tap.last, 3)
			replay = bytes.Clone(tap.last[off : off+size])
		}
	}
	wave("untampered", nil, true)
	for h := 1; h < 5; h++ {
		wave(fmt.Sprintf("hop %d's blob flipped", h), func(resp []byte) {
			off, size := blobSpan(t, resp, h)
			resp[off+(h*7)%size] ^= 0x40
		}, false)
	}
	wave("blobs of hops 2 and 4 swapped", func(resp []byte) {
		a, size := blobSpan(t, resp, 2)
		b, _ := blobSpan(t, resp, 4)
		tmp := bytes.Clone(resp[a : a+size])
		copy(resp[a:a+size], resp[b:b+size])
		copy(resp[b:b+size], tmp)
	}, false)
	wave("hop 3's blob replayed from an earlier wave", func(resp []byte) {
		off, size := blobSpan(t, resp, 3)
		if size != len(replay) {
			t.Fatalf("replayed blob of %d bytes for a slot of %d", len(replay), size)
		}
		copy(resp[off:], replay)
	}, false)
	wave("items 0 and 1 re-aligned", func(resp []byte) {
		at := eeBatchRespFixedLen - 1 + 8 // item 0's status
		resp[at], resp[at+eeBatchTailLen] = resp[at+eeBatchTailLen], resp[at]
	}, false)
	wave("untampered again", nil, true)
}

// TestWaveSigmasEqualSolo renews the same EERs to the same bandwidths — kept,
// raised and lowered — on twin fabrics, once as one wave and once solo, and
// demands the same grants: versions, bandwidths and every hop's σ. The waves
// hold 1, 3, 4, 5 and 9 items, and the destination refuses every third item
// from the second on, so refused items sit between live ones and every hop
// runs its σs in four, three, two and one lanes: a σ computed in another live
// item's lane, or for a refused item, fails here.
func TestWaveSigmasEqualSolo(t *testing.T) {
	const n = 9
	var veto atomic.Bool // the destination's veto, once the EERs are set up
	vetoes := func(dstHost uint32) bool { return veto.Load() && (dstHost-5000)%3 == 1 }
	refuse := func(iaKey topology.IA, cfg *Config) {
		highRate(iaKey, cfg)
		if iaKey == ia(2, 11) {
			cfg.DstApprove = func(_ reservation.ID, _, dstHost uint32, _ uint64, _ uint32) bool { return !vetoes(dstHost) }
		}
	}
	fw, fs := cpFabric(t, 4, refuse), cpFabric(t, 4, refuse)
	fw.setupAllSegRs(t, 1_000_000)
	fs.setupAllSegRs(t, 1_000_000)
	gw := requestEERs(t, fw.services[ia(1, 11)], n, 1_000)
	gs := requestEERs(t, fs.services[ia(1, 11)], n, 1_000)
	veto.Store(true)
	rng := rand.New(rand.NewSource(5))
	for round, size := range []int{1, 3, 4, 5, 9, 9, 5, 4, 3, 1} {
		fw.clock.Add(1)
		fs.clock.Store(fw.clock.Load())
		bws := make([]uint64, size)
		for i := range bws {
			bws[i] = []uint64{1_000, 2_000, 500, 1, 5_000}[rng.Intn(5)]
		}
		waved, errs := fw.services[ia(1, 11)].RenewEERBatch(gw[:size], bws)
		live := 0
		for i := range size {
			solo, err := fs.services[ia(1, 11)].RenewEER(gs[i], bws[i])
			if vetoes(gs[i].EER.DstHost) {
				if err == nil || errs[i] == nil || waved[i] != nil {
					t.Fatalf("round %d item %d, vetoed: solo %v, wave grant %v, %v", round, i, err, waved[i], errs[i])
				}
				continue
			}
			if err != nil || errs[i] != nil {
				t.Fatalf("round %d item %d: solo %v, wave %v", round, i, err, errs[i])
			}
			w := waved[i]
			if w.ID != solo.ID || w.Res != solo.Res || w.EER != solo.EER || !slices.Equal(w.HopAuths, solo.HopAuths) {
				t.Fatalf("round %d item %d: wave grant %+v, solo grant %+v", round, i, w, solo)
			}
			checkHopAuths(t, fw, w)
			gw[i], gs[i] = w, solo
			live++
		}
		if want := size - (size+1)/3; live != want {
			t.Fatalf("round %d: %d of %d items live, want %d", round, live, size, want)
		}
	}
}

// TestWaveTailMutationIsolated is ROADMAP 9(a)'s property: the AS-mutable tail
// of a tag-7 wave (each item's accumulated grant and status, outside the
// source's MACs) is per item. Changing one item's accumulator or status — to
// zero, to more than asked, refused, resurrected, to a status no hop writes —
// before a hop handles the wave must change no other item's status, grant or σ
// at that hop or any after it, with capacity to spare so that no item's demand
// can crowd out another's. Which items are live decides how a hop packs its σs
// into lanes, so a σ that follows the packing to another item fails here.
func TestWaveTailMutationIsolated(t *testing.T) {
	const n, trials = 9, 3
	rng := rand.New(rand.NewSource(11))
	for idx := 1; idx <= 4; idx++ {
		for trial := range trials {
			build := func() (*fabric, *EEBatchRenewReq) {
				f := cpFabric(t, 4, highRate)
				f.setupAllSegRs(t, 1_000_000)
				src := f.services[ia(1, 11)]
				gs := requestEERs(t, src, n, 1_000)
				f.clock.Add(1)
				return f, signedWave(t, src, gs)
			}
			fa, reqA := build() // mutated
			fb, reqB := build() // as sent
			// Items the source or an upstream hop already refused, and
			// upstream grants below the ask, in both.
			for i := range reqB.Items {
				switch rng.Intn(4) {
				case 0:
					reqB.Status[i] = EEItemRefused
				case 1:
					reqB.Accums[i] = reqB.Items[i].BwKbps / 2
				}
			}
			copy(reqA.Status, reqB.Status)
			copy(reqA.Accums, reqB.Accums)
			j := rng.Intn(n)
			mutation := ""
			switch m := rng.Intn(7); m {
			case 0, 1, 2:
				reqA.Accums[j] = []uint64{0, 1, 1 << 40}[m]
				mutation = fmt.Sprintf("accumulator %d", reqA.Accums[j])
			default:
				reqA.Status[j] = []uint8{EEItemOK, EEItemRefused, EEItemThrottled, 200}[m-3]
				mutation = fmt.Sprintf("status %d", reqA.Status[j])
			}
			name := fmt.Sprintf("hop %d trial %d: item %d's %s (was %d, %d)", idx, trial, j, mutation, reqB.Status[j], reqB.Accums[j])
			hopIA := reqA.Path[idx].IA
			outA, errA := fa.services[hopIA].HandleMsg(reqA.Marshal())
			outB, errB := fb.services[hopIA].HandleMsg(reqB.Marshal())
			if errA != nil || errB != nil {
				t.Fatalf("%s: %v, %v", name, errA, errB)
			}
			respA, sigmasA := openedWave(t, fa, reqA, idx, outA)
			respB, sigmasB := openedWave(t, fb, reqB, idx, outB)
			for i := range reqA.Items {
				if i == j {
					continue
				}
				if respA.Status[i] != respB.Status[i] || respA.Granted[i] != respB.Granted[i] {
					t.Fatalf("%s: item %d status %d grant %d, unmutated %d %d",
						name, i, respA.Status[i], respA.Granted[i], respB.Status[i], respB.Granted[i])
				}
				if !slices.Equal(sigmasA[i], sigmasB[i]) {
					t.Fatalf("%s: item %d's σs %x, unmutated %x", name, i, sigmasA[i], sigmasB[i])
				}
			}
		}
	}
}

// openedWave decodes out, the answer hop idx of f gave to the wave req, and
// opens the blobs of hop idx and every hop after it as the source would. It
// returns, per item, the σs those hops sealed for it — nil for an item not
// live — each checked against what that hop computes alone for the item at its
// final grant.
func openedWave(t *testing.T, f *fabric, req *EEBatchRenewReq, idx int, out []byte) (*EEBatchRenewResp, [][]cryptoutil.Key) {
	t.Helper()
	resp, err := UnmarshalEEBatchRenewResp(out)
	if err != nil || !resp.OK {
		t.Fatalf("answer %+v, %v", resp, err)
	}
	src := f.services[ia(1, 11)]
	sigmas := make([][]cryptoutil.Key, len(req.Items))
	live := liveOf(resp.Status)
	for h := idx; h < len(req.Path); h++ {
		kc, err := src.hopKey(req.Path[h].IA, f.now())
		if err != nil {
			t.Fatal(err)
		}
		ad := waveAuthAD(nil, h, &req.Macs[h], resp.Status)
		opened, err := kc.sealer.OpenTo(nil, resp.Blobs[h], ad)
		if err != nil || len(opened) != live*cryptoutil.KeySize {
			t.Fatalf("hop %d's blob: %d bytes, %v", h, len(opened), err)
		}
		hop, hf := f.services[req.Path[h].IA], packet.HopField{In: req.Path[h].In, Eg: req.Path[h].Eg}
		for i, k := 0, 0; i < len(req.Items); i++ {
			if resp.Status[i] != EEItemOK {
				continue
			}
			sigma := cryptoutil.Key(opened[k*cryptoutil.KeySize:])
			res, eer := req.Items[i].infos(resp.Granted[i])
			if want := hop.hopAuth(&res, &eer, hf); sigma != want {
				t.Fatalf("hop %d sealed %x as live item %d's σ (item %d), it computes %x", h, sigma, k, i, want)
			}
			sigmas[i] = append(sigmas[i], sigma)
			k++
		}
	}
	return resp, sigmas
}

// TestHopMACsSurviveGC: a service computes its σs and SegR tokens under one
// CBC-MAC it builds with itself, not under one taken from a pool the garbage
// collector empties. Right after two collections a σ and a token still cost
// no allocation and no expansion of K_i, so allocation counts do not depend
// on when the collector last ran.
func TestHopMACsSurviveGC(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := cpFabric(t, 1, nil)
	s := f.services[ia(1, 1)]
	res := packet.ResInfo{SrcAS: ia(1, 11), ResID: 7, BwKbps: 100, ExpT: 1_000, Ver: 1}
	eer := packet.EERInfo{SrcHost: 1, DstHost: 2}
	hf := packet.HopField{In: 1, Eg: 2}
	var sigma cryptoutil.Key
	var tok [packet.HVFLen]byte
	for name, fn := range map[string]func(){
		"hopAuth":  func() { sigma = s.hopAuth(&res, &eer, hf) },
		"segToken": func() { tok = s.segToken(&res, hf) },
	} {
		fn()
		if a := testing.AllocsPerRun(20, func() { runtime.GC(); runtime.GC(); fn() }); a != 0 {
			t.Errorf("%s after two collections: %.2f allocations, want 0", name, a)
		}
	}
	if sigma == (cryptoutil.Key{}) || tok == ([packet.HVFLen]byte{}) {
		t.Fatal("no σ or no token computed")
	}
}

// TestWaveAllocBudget pins the allocations of a 5-hop, 1024-item wave driven
// by KeeperFleet.Tick, per item, so the gain cannot silently rot: every keeper
// renews its grant in place, so what is left is the per-wave messages (about
// 31 per wave). The first batched wave paid about 62 per item, and a wave that
// built a fresh grant and hop authenticators per item about 2.03.
func TestWaveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := cpFabric(t, 8, highRate)
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	const n = 1024
	fleet := NewKeeperFleet(src)
	fleet.BatchSize = n
	gw := &fakeInstaller{}
	for _, g := range requestEERs(t, src, n, 100) {
		fleet.Add(NewEERKeeper(src, gw, g, 4))
	}
	tick := func() {
		f.clock.Add(13)
		if failed := fleet.Tick(); failed != 0 {
			t.Fatalf("%d renewals failed", failed)
		}
	}
	tick() // size the scratch
	perItem := testing.AllocsPerRun(5, tick) / n
	if gw.installs != 7*n {
		t.Fatalf("installs = %d, want %d", gw.installs, 7*n)
	}
	t.Logf("%.3f allocations per item", perItem)
	if perItem > 0.04 {
		t.Errorf("a wave allocates %.3f times per item, budget 0.04", perItem)
	}
}

// echoBatch answers a forwarded wave the way a chain of granting downstream
// hops would: every live item granted what it carried.
type echoBatch struct{ inner Transport }

func (e echoBatch) Call(dst topology.IA, msg []byte) ([]byte, error) {
	if msg[0] != tagEEBatchRenew {
		return e.inner.Call(dst, msg)
	}
	req, err := UnmarshalEEBatchRenewReq(msg)
	if err != nil {
		return nil, err
	}
	resp := &EEBatchRenewResp{OK: true, Granted: req.Accums, Status: req.Status}
	for range req.Path {
		resp.Blobs = append(resp.Blobs, make([]byte, blobLen(liveOf(req.Status))))
	}
	return resp.Marshal(), nil
}

// hopSegs resolves the covering SegRs of hop idx as the handlers do.
func hopSegs(t testing.TB, s *Service, req *EEBatchRenewReq, idx int) (ids []reservation.ID, segRs []*reservation.SegR) {
	t.Helper()
	c, err := s.hopCover(req.SegIDs, req.Splits, len(req.Path), idx)
	if err != nil {
		t.Fatal(err)
	}
	return c.segs(), c.segRs[:c.n]
}

// refAllowRenew is the model of the per-EER renewal throttle (§4.2, one a
// second): a renewal is judged by the mark in its record and leaves its own
// there. The mark goes where the record goes: a re-admission finds neither, and
// the record it creates is born marked.
func refAllowRenew(s *Service, id reservation.ID, segs []reservation.ID, now uint32) (ok bool) {
	s.cp.withPath(segs, func(p eerPath) {
		if e := p.lookup(id); e != nil {
			if ok = e.lastRenew != now; ok {
				e.lastRenew = now
			}
		}
	})
	return ok
}

// refBatchHop is the reference the fused forward pass is held to: the
// parent's per-item sequence at one hop, every step its own locked CPlane
// call — LookupEER, dedup, the throttle (refAllowRenew), the transfer split over
// SegAvail, RenewEERPath or SetupEERPath, settle — item after item in wave
// order, with the downstream answer of echoBatch (final grant = hop grant).
// lost counts the live items that found no record although an earlier item of
// the same wave had found one: the earlier item's renewal dropped it.
func refBatchHop(t testing.TB, s *Service, req *EEBatchRenewReq, idx int) (status []uint8, granted []uint64, lost int) {
	now := s.clock()
	segIDs, segRs := hopSegs(t, s, req, idx)
	var split *admission.PairBooks
	if len(segRs) == 2 && segRs[0].SegType == segment.Up && segRs[1].SegType == segment.Core {
		split = s.transfer.Pair(segIDs[1], segIDs[0])
	}
	status, granted = make([]uint8, len(req.Items)), make([]uint64, len(req.Items))
	found := make(map[reservation.ID]bool)
	for i := range req.Items {
		it := &req.Items[i]
		if status[i] = req.Status[i]; status[i] != EEItemOK {
			continue
		}
		asked := min(req.Accums[i], it.BwKbps)
		prevBw, prevVer, prevExpT, had := s.cp.LookupEER(it.ID, segIDs[0])
		if found[it.ID] && !had {
			lost++
		}
		found[it.ID] = had
		if had && prevVer == it.Ver && prevExpT == it.ExpT {
			granted[i] = prevBw
			continue
		}
		if had && !refAllowRenew(s, it.ID, segIDs, now) {
			status[i] = EEItemThrottled
			continue
		}
		grant := asked
		var capped, tGrant uint64
		if split != nil {
			up, core := segRs[0], segRs[1]
			upAvail, coreAvail := s.cp.SegAvail(up.ID, now, it.ExpT), s.cp.SegAvail(core.ID, now, it.ExpT)
			if had && prevExpT > now {
				upAvail, coreAvail = upAvail+prevBw, coreAvail+prevBw
			}
			grant = split.Admit(asked, up.Active.BwKbps, core.Active.BwKbps, upAvail, coreAvail)
			capped, tGrant = min(asked, up.Active.BwKbps), grant
			if grant == 0 {
				split.Release(capped, 0)
				status[i] = EEItemRefused
				continue
			}
		}
		var err error
		failed := EEItemRefused
		if had {
			grant, err = s.cp.RenewEERPath(it.ID, segIDs, grant, it.ExpT, it.Ver)
		} else {
			if err, failed = s.cp.SetupEERPath(it.ID, segIDs, grant, it.ExpT, it.Ver), EEItemStale; err == nil {
				refAllowRenew(s, it.ID, segIDs, now) // a re-admitted record is born marked
			}
		}
		if err != nil {
			if split != nil {
				split.Release(capped, tGrant)
			}
			status[i] = failed
			continue
		}
		granted[i] = grant
		if split != nil {
			// Over-ask, the replaced version's charge, the clamp to the final grant.
			split.Release(capped-tGrant, 0)
			if had && prevExpT > now {
				split.Release(prevBw, prevBw)
			}
			split.Release(tGrant-grant, tGrant-grant)
		}
	}
	return status, granted, lost
}

// TestFusedSweepDifferential drives random waves — fresh renewals that grow,
// shrink and oversubscribe, stragglers retrying a committed version,
// same-second renewals, records the hop lost, items an upstream hop already
// killed, and waves that name one EER twice — at each kind of hop
// (single-segment transit, up→core transfer, core→down pair, last hop) through
// the handler on one fabric and through refBatchHop on its twin, and demands
// the same per-item status and grant, the same engine counters and the same
// peak demand on every covering SegR after every wave — and that the hop
// charges every EER at least the peak of the versions it granted that are still
// valid, those a renewal to less replaced included (§4.2).
//
// Laggard EERs are renewed only once their record has lapsed, and are then
// named twice in the wave: the first naming, refused for bandwidth or for its
// window, drops the record, and the second finds none. A later item must see
// what the items before it in its own wave did to its record, and to the record
// swap-last deletion moved into a dropped one's place: a leg that trusted the
// wave's read-ahead instead of its own lookup fails here.
func TestFusedSweepDifferential(t *testing.T) {
	const nEER, nLaggard, waves, jump = 40, 8, 16, 12
	lostAll := 0
	for idx := 1; idx <= 4; idx++ {
		// What the hop's three runs saw between them; the transfer hop's split
		// refuses nearly everything once full, so one run alone may be tame.
		var seen [4]int
		var dups, downs, twice, dedupHits int
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("hop%d/seed%d", idx, seed), func(t *testing.T) {
				var hopIA topology.IA
				build := func() (*fabric, []*EERGrant) {
					f := cpFabric(t, 4, func(iaKey topology.IA, cfg *Config) {
						highRate(iaKey, cfg)
						cfg.Transport = echoBatch{cfg.Transport}
					})
					f.setupAllSegRs(t, 50_000)
					return f, requestEERs(t, f.services[ia(1, 11)], nEER, 1_000)
				}
				fa, ga := build() // handler
				fb, gb := build() // reference
				hopIA = ga[0].PathHops[idx].IA
				sa, sb := fa.services[hopIA], fb.services[hopIA]

				rng := rand.New(rand.NewSource(seed))
				type sent struct {
					item EEBatchItem
					ok   bool
				}
				last := make([]sent, nEER) // per EER: the newest item sent and whether it was granted
				ver := make([]uint16, nEER)
				lapse := make([]uint32, nEER) // per EER: the expiry of its newest granted version
				index := make(map[reservation.ID]int, nEER)
				for i := range ver {
					ver[i] = 1
					lapse[i] = ga[i].Res.ExpT
					index[ga[i].ID] = i
				}
				valid := newValidVersions(len(ga[0].PathHops), ga)
				var run [4]int // statuses seen
				runDups, runDowns, runTwice, lost := 0, 0, 0, 0
				// Start late in the EERs' first lifetime, so that laggards lapse
				// early on.
				fa.clock.Add(jump)
				fb.clock.Store(fa.clock.Load())
				for w := 0; w < waves; w++ {
					if rng.Intn(3) > 0 { // else: the same second again, so fresh versions throttle
						fa.clock.Add(uint32(1 + rng.Intn(3)))
						fb.clock.Store(fa.clock.Load())
					}
					now := fa.clock.Load()
					reqA := signedWave(t, fa.services[ia(1, 11)], ga)
					reqB := signedWave(t, fb.services[ia(1, 11)], gb)
					segIDs, _ := hopSegs(t, sa, reqA, idx)
					reqA.Items, reqA.Accums, reqA.Status = nil, nil, nil
					var picks []int
					for _, e := range rng.Perm(nEER)[:10+rng.Intn(nEER-9)] {
						if e < nLaggard && now < lapse[e] {
							continue // a laggard is left alone until its record lapses
						}
						picks = append(picks, e)
					}
					// Name every laggard and one in six other EERs of the wave a
					// second time, further on (from the back, so that an insertion
					// moves no pick still to come).
					for i := len(picks) - 1; i >= 0; i-- {
						if picks[i] < nLaggard || rng.Intn(6) == 0 {
							picks = slices.Insert(picks, i+1+rng.Intn(len(picks)-i), picks[i])
						}
					}
					inWave := make(map[int]bool)
					for _, e := range picks {
						id := ga[e].ID
						repeat := inWave[e]
						if repeat {
							runTwice++
						}
						inWave[e] = true
						var it EEBatchItem
						switch k := rng.Intn(10); {
						case k == 0 && last[e].ok: // straggler: retry of the committed version
							it = last[e].item
							runDups++
						case k == 1 && repeat && rng.Intn(2) == 0: // the same request twice in one wave
							it = last[e].item
						default:
							if k == 1 { // the hop lost the record
								sa.cp.TeardownEERPath(id, segIDs)
								sb.cp.TeardownEERPath(id, segIDs)
								valid[idx][e] = nil
							}
							ver[e]++
							it = EEBatchItem{ID: id, Ver: ver[e], BwKbps: uint64(200 + rng.Intn(4_000)),
								ExpT: now + reservation.EERLifetimeSeconds, SrcHost: ga[e].EER.SrcHost, DstHost: ga[e].EER.DstHost}
							switch {
							case e < nLaggard && !repeat && rng.Intn(2) == 0:
								// A window past the ledger's horizon: refused, and the
								// lapsed record goes with the refusal.
								it.ExpT = now + 1_000
							case rng.Intn(8) == 0:
								it.BwKbps = 60_000 // more than the SegR has
							}
						}
						accum, status := it.BwKbps, EEItemOK
						if rng.Intn(4) == 0 {
							accum = it.BwKbps / 2 // an upstream hop granted less
						}
						if rng.Intn(12) == 0 {
							status = EEItemRefused // an upstream hop killed it
						}
						reqA.Items = append(reqA.Items, it)
						reqA.Accums = append(reqA.Accums, accum)
						reqA.Status = append(reqA.Status, status)
						last[e].item = it
					}
					reqB.Items, reqB.Accums, reqB.Status = reqA.Items, reqA.Accums, reqA.Status
					reqA.Macs = signFor(t, fa.services[ia(1, 11)], reqA.Path, reqA.Body())

					out, err := sa.HandleMsg(reqA.Marshal())
					if err != nil {
						t.Fatal(err)
					}
					resp, err := UnmarshalEEBatchRenewResp(out)
					if err != nil || !resp.OK {
						t.Fatalf("wave %d: %v %+v", w, err, resp)
					}
					refStatus, refGranted, refLost := refBatchHop(t, sb, reqB, idx)
					lost += refLost
					for i := range reqA.Items {
						if resp.Status[i] != refStatus[i] || resp.Granted[i] != refGranted[i] {
							t.Fatalf("wave %d item %d (%+v): handler status %d grant %d, per-item sequence status %d grant %d",
								w, i, reqA.Items[i], resp.Status[i], resp.Granted[i], refStatus[i], refGranted[i])
						}
						run[resp.Status[i]]++
						e := index[reqA.Items[i].ID]
						if last[e].ok = resp.Status[i] == EEItemOK && resp.Granted[i] > 0; last[e].ok {
							lapse[e] = reqA.Items[i].ExpT
							if resp.Granted[i] < valid.peak(idx, e, now) {
								runDowns++
							}
							valid[idx][e] = append(valid[idx][e], EERVersion{BwKbps: resp.Granted[i], ExpT: reqA.Items[i].ExpT})
						}
					}
					if ca, cb := sa.cp.Counts(), sb.cp.Counts(); ca != cb {
						t.Fatalf("wave %d: engine counters diverge:\nhandler  %+v\nsequence %+v", w, ca, cb)
					}
					valid.check(t, sa, ga, idx, fmt.Sprintf("wave %d", w))
					for _, seg := range segIDs {
						da, _ := sa.cp.SegDemandMax(seg)
						db, _ := sb.cp.SegDemandMax(seg)
						if da != db || da > 50_000 {
							t.Fatalf("wave %d: SegR %s peak demand %d (handler) vs %d (sequence), grant 50000", w, seg, da, db)
						}
					}
				}
				t.Logf("statuses %v, %d retries, %d downward grants, %d EERs named twice in a wave, %d found their record dropped by the wave",
					run, runDups, runDowns, runTwice, lost)
				m := sa.Metrics().Snapshot()
				if m.RenewThrottle != uint64(run[EEItemThrottled]) {
					t.Errorf("handler counted %d throttled, statuses %v", m.RenewThrottle, run)
				}
				for st, n := range run {
					seen[st] += n
				}
				dups, downs, twice, dedupHits, lostAll = dups+runDups, downs+runDowns, twice+runTwice, dedupHits+int(m.DedupHits), lostAll+lost
			})
		}
		if !t.Failed() && (seen[EEItemOK] == 0 || seen[EEItemThrottled] == 0 || seen[EEItemStale]+seen[EEItemRefused] == 0 ||
			dups == 0 || downs == 0 || dedupHits == 0 || twice == 0) {
			t.Errorf("hop %d: waves too tame: statuses %v, %d retries, %d downward grants, %d dedup hits, %d EERs named twice",
				idx, seen, dups, downs, dedupHits, twice)
		}
	}
	if !t.Failed() && lostAll == 0 {
		t.Errorf("no item found its record dropped by an earlier item of its wave")
	}
}

// TestWaveConcurrentHandlers runs batched waves and solo renewals of disjoint
// EER sets through one source — and therefore through every transit service's
// key cache and wave scratch — from several goroutines at once; under -race
// it finds unsynchronized sharing, and the σ check finds one wave's scratch
// leaking into another's response.
func TestWaveConcurrentHandlers(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	const workers, per, rounds = 4, 48, 3
	all := requestEERs(t, src, workers*per, 100)
	// One renewal per EER per second: whoever finishes a round last moves the
	// clock, the others wait for it.
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	arrived := 0
	barrier := func(round int) {
		mu.Lock()
		defer mu.Unlock()
		if arrived++; arrived == (round+1)*workers {
			f.clock.Add(1)
			cond.Broadcast()
		}
		for arrived < (round+1)*workers {
			cond.Wait()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(mine []*EERGrant, solo bool) {
			defer wg.Done()
			bws := make([]uint64, len(mine))
			for i := range bws {
				bws[i] = 100
			}
			for r := 0; r < rounds; r++ {
				if solo {
					for i, g := range mine {
						ng, err := src.RenewEER(g, 100)
						if err != nil {
							t.Errorf("solo renewal: %v", err)
							return
						}
						mine[i] = ng
					}
				} else {
					grants, errs := src.RenewEERBatch(mine, bws)
					if err := errors.Join(errs...); err != nil {
						t.Errorf("wave: %v", err)
						return
					}
					copy(mine, grants)
				}
				barrier(r)
			}
		}(all[w*per:(w+1)*per], w == 0)
	}
	wg.Wait()
	for _, g := range all {
		if g.Res.Ver != 1+rounds {
			t.Fatalf("EER %s at version %d, want %d", g.ID, g.Res.Ver, 1+rounds)
		}
		checkHopAuths(t, f, g)
	}
}

// cachedCrypto peeks at s's key cache: the crypto it holds for key, if any,
// and how many keys it holds — -1 if its indexes disagree with its ring: the
// key index names every entry, the memo of K_{me→src} only entries derived
// under the name it files them by.
func (s *Service) cachedCrypto(key cryptoutil.Key) (*keyCrypto, int) {
	c := &s.keyCache
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.index) != len(c.ring) || len(c.own) > len(c.ring) {
		return nil, -1
	}
	for name, kc := range c.own {
		if !kc.derived || kc.own != name || c.index[kc.key] != kc {
			return nil, -1
		}
	}
	return c.index[key], len(c.ring)
}

// memoised returns the crypto s's memo of K_{me→src} holds for src at time t,
// or nil.
func (s *Service) memoised(src topology.IA, t uint32) *keyCrypto {
	c := &s.keyCache
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.own[ownKey{src: src, epoch: s.engine.EpochAt(t).Begin}]
}

// TestKeyCacheUnderForgedSources is ROADMAP 9(c)'s key-cache case. A request
// names its source AS before it can be authenticated, so every forged message
// makes its receiver derive a key and build its schedule. An attacker cycles 65
// forged source ASes — one more than the cache holds — through waves and solo
// setups and renewals (tags 7, 4 and 5) the source 1-11 must answer, between
// 1-11's own honest waves and solo renewals, whose five hop keys sign and open
// everything it sends. The honest keys must be rebuilt at most 1 + forged/64
// times each, whatever the honest traffic: an attacker buys one honest rebuild
// per 64 forged messages at the most, and honest requests pay no key-schedule
// tax of their own. The cache, and its memo of K_{me→src} per (source, epoch),
// never hold more than 64.
func TestKeyCacheUnderForgedSources(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	gs := requestEERs(t, src, 8, 100)
	bws := []uint64{100, 100, 100, 100, 100, 100, 100, 100}
	path := gs[0].PathHops
	honest := make([]cryptoutil.Key, len(path))
	for h, ph := range path {
		kc, err := src.hopKey(ph.IA, f.now())
		if err != nil {
			t.Fatal(err)
		}
		honest[h] = kc.key
	}
	const rounds, perRound, sources = 100, 26, 65
	built, rebuilds := make([]*keyCrypto, len(path)), make([]int, len(path))
	forged, refused := 0, src.Metrics().AuthFailures.Value()
	for r := range rounds {
		f.clock.Add(1)
		if r%2 == 0 {
			var errs []error
			if gs, errs = src.RenewEERBatch(gs, bws); errors.Join(errs...) != nil {
				t.Fatalf("round %d: honest wave: %v", r, errors.Join(errs...))
			}
		} else {
			g, err := src.RenewEER(gs[0], 100)
			if err != nil {
				t.Fatalf("round %d: honest solo renewal: %v", r, err)
			}
			gs[0] = g
		}
		for h, key := range honest {
			kc, size := src.cachedCrypto(key)
			if kc == nil || size > keyCacheSize {
				t.Fatalf("round %d: hop %d's key cached %v, %d keys cached", r, h, kc != nil, size)
			}
			if kc != built[h] {
				built[h] = kc
				rebuilds[h]++
			}
		}
		for range perRound {
			as := topology.MustIA(3, topology.ASID(100+forged%sources))
			path := []PathHop{{IA: as}, {IA: src.ia}}
			var msg []byte
			switch forged % 3 {
			case 0:
				msg = (&EEBatchRenewReq{SegIDs: gs[0].SegIDs, Splits: gs[0].Splits, Path: path,
					Items:  []EEBatchItem{{ID: reservation.ID{SrcAS: as, Num: 1}, Ver: 1, BwKbps: 1, ExpT: f.now() + 16}},
					Macs:   make([][cryptoutil.MACSize]byte, 2),
					Accums: []uint64{1}, Status: []uint8{EEItemOK}}).Marshal()
			default:
				msg = (&EESetupReq{ID: reservation.ID{SrcAS: as, Num: 1}, SegIDs: gs[0].SegIDs, Splits: gs[0].Splits,
					Path: path, BwKbps: 1, ExpT: f.now() + 16, Ver: 1, AccumKbps: 1, Renewal: forged%3 == 2,
					Macs: make([][cryptoutil.MACSize]byte, 2)}).Marshal()
			}
			if out, err := src.HandleMsg(msg); err != nil || !strings.Contains(string(out), "authentication") {
				t.Fatalf("forged tag %d from %s: %q, %v", msg[0], as, out, err)
			}
			forged++
		}
	}
	if got := src.Metrics().AuthFailures.Value() - refused; got != uint64(forged) {
		t.Fatalf("%d forged requests refused, %d sent", got, forged)
	}
	bound := 1 + forged/keyCacheSize
	t.Logf("%d forged requests from %d sources; honest keys built %v times (bound %d)", forged, sources, rebuilds, bound)
	for h, n := range rebuilds {
		if n > bound {
			t.Errorf("hop %d's key built %d times under %d forged requests, bound %d", h, n, forged, bound)
		}
	}
}

// TestKeyMemoFollowsEpoch: the memo of K_{me→src} is per DRKey epoch. At the
// first second of a new epoch every hop authenticates 1-11's request under the
// new epoch's key — a request signed a second earlier, under the key the hop
// has memoised, is refused — and memoises it beside the old one under the new
// epoch's name.
func TestKeyMemoFollowsEpoch(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	f.setupAllSegRs(t, 1_000_000)
	src := f.services[ia(1, 11)]
	g := requestEERs(t, src, 1, 100)[0]
	hop1 := f.services[g.PathHops[1].IA]
	ep := hop1.engine.EpochAt(f.now())
	f.clock.Store(ep.End - 1)
	stale := signSolo(t, src, renewalOf(g, g.Res.Ver+1, 100, ep.End))
	g, err := src.RenewEER(g, 100)
	if err != nil {
		t.Fatalf("renewal in the epoch's last second: %v", err)
	}
	old := make([]*keyCrypto, len(g.PathHops))
	for h, ph := range g.PathHops {
		if old[h] = f.services[ph.IA].memoised(src.ia, ep.End-1); old[h] == nil {
			t.Fatalf("hop %d (%s) memoised no key for 1-11 in epoch %v", h, ph.IA, ep)
		}
	}

	f.clock.Store(ep.End)
	refused := hop1.Metrics().AuthFailures.Value()
	out, err := hop1.HandleMsg(stale)
	if ok, _, reason := answerOf(out); err != nil || ok || !strings.Contains(reason, "authentication") {
		t.Fatalf("request signed under the old epoch's key, at the new epoch's first second: ok %v, %q, %v", ok, reason, err)
	}
	if hop1.Metrics().AuthFailures.Value() != refused+1 {
		t.Fatal("the refusal under the old epoch's key was not counted")
	}
	if g, err = src.RenewEER(g, 100); err != nil {
		t.Fatalf("renewal at the new epoch's first second: %v", err)
	}
	checkHopAuths(t, f, g)
	for h, ph := range g.PathHops {
		s := f.services[ph.IA]
		want, _ := s.engine.Level1(src.ia, ep.End)
		kc := s.memoised(src.ia, ep.End)
		switch {
		case kc == nil || kc.key != want:
			t.Fatalf("hop %d (%s): memo of the new epoch holds %v, want the new key", h, ph.IA, kc)
		case kc == old[h] || kc.key == old[h].key:
			t.Fatalf("hop %d (%s): the new epoch's memo is the old epoch's key", h, ph.IA)
		case s.memoised(src.ia, ep.End-1) != old[h]:
			t.Fatalf("hop %d (%s): the old epoch's memo changed", h, ph.IA)
		}
	}
}

// TestRenewThrottleLivesInTheRecord: the per-EER throttle's mark is a field of
// the EER record and nothing else. A record lost in the very second it was
// renewed takes its mark with it, so the re-admission that follows in that second
// passes this hop — pinned at the source, where the next hop's intact record then
// stops it — and a re-admission that goes through creates its record marked.
func TestRenewThrottleLivesInTheRecord(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	f.setupAllSegRs(t, 100_000)
	src := f.services[ia(1, 11)]
	gs := requestEERs(t, src, 8, 1_000)
	bws := make([]uint64, len(gs))
	for i := range bws {
		bws[i] = 1_000
	}
	for round := 0; round < 3; round++ {
		f.clock.Add(1)
		var errs []error
		if gs, errs = src.RenewEERBatch(gs, bws); errors.Join(errs...) != nil {
			t.Fatalf("wave %d: %v", round, errors.Join(errs...))
		}
	}
	f.clock.Add(1)
	g, err := src.RenewEER(gs[0], 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.RenewEER(g, 1_000); err == nil || !strings.Contains(err.Error(), "hop 0: renewal rate limit") {
		t.Fatalf("second renewal in one second: err = %v, want the source's throttle", err)
	}
	// The source loses the record it renewed this second. Each re-admission is
	// rolled back when hop 1 refuses, so the source keeps nothing to mark.
	src.cp.TeardownEERPath(g.ID, g.SegIDs[:1])
	for try := 0; try < 2; try++ {
		if _, err := src.RenewEER(g, 1_000); err == nil || !strings.Contains(err.Error(), "hop 1: renewal rate limit") {
			t.Fatalf("re-admission %d in the second of the lost renewal: err = %v, want it past the source and throttled at hop 1", try, err)
		}
	}
	// A second later the re-admission goes through, and its record is born marked.
	f.clock.Add(1)
	if g, err = src.RenewEER(g, 1_000); err != nil {
		t.Fatalf("re-admission: %v", err)
	}
	if _, err := src.RenewEER(g, 1_000); err == nil || !strings.Contains(err.Error(), "hop 0: renewal rate limit") {
		t.Fatalf("renewal in the second of the re-admission: err = %v, want the source's throttle", err)
	}
}
