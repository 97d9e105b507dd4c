package cserv

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/reservation"
	"colibri/internal/topology"
)

// sameErr reports whether a view and the oracle failed alike: both not at
// all, or with the same error.
func sameErr(view, oracle error) bool {
	return view == oracle || (view != nil && oracle != nil && view.Error() == oracle.Error())
}

// FuzzEEViewOracle is the differential target of the views (views.go): on
// every input each view accepts exactly what its struct decoder of old — the
// oracle, codec_oracle_test.go — accepts, fails with the same error, and reads
// every field as the oracle decodes it. The seeds are every golden message of
// testdata/wire, the count crashers, and a real setup, renewal and wave with
// their answers as they crossed the wire.
func FuzzEEViewOracle(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "wire", "*.hex"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("goldens: %v", err)
	}
	for _, path := range goldens {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		msg, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg)
	}
	f.Add(reqCountCrasher)
	f.Add(respCountCrasher)
	for _, msg := range capturedEERMessages(f) {
		f.Add(msg)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEEReqView(t, data)
		checkWaveView(t, data)
		checkEERespView(t, data)
		checkWaveRespView(t, data)
	})
}

// capturedEERMessages runs a setup, a renewal and a wave of two over a
// five-hop fabric and returns every request and answer that crossed a link.
func capturedEERMessages(t testing.TB) (msgs [][]byte) {
	fab := cpFabric(t, 4, highRate)
	fab.setupAllSegRs(t, 100_000)
	src := fab.services[ia(1, 11)]
	inner := src.transport
	src.transport = recordTransport{inner, func(msg, out []byte) { msgs = append(msgs, bytes.Clone(msg), bytes.Clone(out)) }}
	gs := requestEERs(t, src, 2, 1_000)
	fab.clock.Add(1)
	if _, err := src.RenewEER(gs[0], 2_000); err != nil {
		t.Fatal(err)
	}
	fab.clock.Add(1)
	if _, errs := src.RenewEERBatch(gs, []uint64{1_000, 500}); errs[0] != nil || errs[1] != nil {
		t.Fatalf("wave: %v", errs)
	}
	src.transport = inner
	return msgs
}

// recordTransport hands every request it forwards and its answer to keep.
type recordTransport struct {
	inner Transport
	keep  func(msg, out []byte)
}

func (r recordTransport) Call(dst topology.IA, msg []byte) ([]byte, error) {
	out, err := r.inner.Call(dst, msg)
	if err == nil {
		r.keep(msg, out)
	}
	return out, err
}

// checkChain compares what a chainView reads with the oracle's decoded chain.
func checkChain(t *testing.T, c *chainView, segIDs []reservation.ID, splits []uint8, path []PathHop, macs [][cryptoutil.MACSize]byte, bodyLen int) {
	t.Helper()
	if c.nSeg != len(segIDs) || c.nSplit != len(splits) || c.nPath != len(path) || c.nMac != len(macs) || c.bodyLen != bodyLen {
		t.Fatalf("view counts %d/%d/%d/%d body %d, oracle %d/%d/%d/%d body %d", c.nSeg, c.nSplit, c.nPath, c.nMac, c.bodyLen,
			len(segIDs), len(splits), len(path), len(macs), bodyLen)
	}
	for k, id := range segIDs {
		if c.segID(k) != id {
			t.Fatalf("SegID %d: view %v, oracle %v", k, c.segID(k), id)
		}
	}
	if !bytes.Equal(c.splits(), splits) {
		t.Fatalf("splits: view %v, oracle %v", c.splits(), splits)
	}
	for i, h := range path {
		if c.hop(i) != h || c.hopIA(i) != h.IA || c.hopField(i).In != h.In || c.hopField(i).Eg != h.Eg {
			t.Fatalf("hop %d: view %+v, oracle %+v", i, c.hop(i), h)
		}
		if got, want := c.index(h.IA), slices.IndexFunc(path, func(p PathHop) bool { return p.IA == h.IA }); got != want {
			t.Fatalf("index of %s: view %d, oracle %d", h.IA, got, want)
		}
		hc, ok := c.cover(i)
		want, wantOK := coverOf(segIDs, splits, len(path), i)
		if ok != wantOK || (ok && !slices.Equal(hc.segs(), want.segs())) {
			t.Fatalf("cover of hop %d: view %v %v, oracle %v %v", i, hc.segs(), ok, want.segs(), wantOK)
		}
	}
	for i, m := range macs {
		if *c.macAt(i) != m {
			t.Fatalf("MAC %d differs", i)
		}
	}
	if c.macAt(len(macs)) != nil {
		t.Fatal("a MAC past the last")
	}
}

func checkEEReqView(t *testing.T, data []byte) {
	var v eeReqView
	var r EESetupReq
	verr, oerr := v.load(data), r.unmarshal(data)
	if !sameErr(verr, oerr) {
		t.Fatalf("EESetupReq: view %v, oracle %v", verr, oerr)
	}
	m, merr := UnmarshalEESetupReq(data)
	if !sameErr(merr, oerr) {
		t.Fatalf("UnmarshalEESetupReq %v, oracle %v", merr, oerr)
	}
	if oerr != nil {
		return
	}
	if !reflect.DeepEqual(m, &r) {
		t.Fatalf("materialised %+v, oracle %+v", m, &r)
	}
	if v.id() != r.ID || v.renewal() != r.Renewal || v.item() != r.item() || v.bw() != r.BwKbps || v.accum() != r.AccumKbps ||
		v.end != len(data) || !bytes.Equal(v.body(), r.wire[:r.bodyLen]) {
		t.Fatalf("view reads %+v (accum %d, end %d), oracle %+v", v.item(), v.accum(), v.end, r)
	}
	checkChain(t, &v.chainView, r.SegIDs, r.Splits, r.Path, r.Macs, r.bodyLen)
}

func checkWaveView(t *testing.T, data []byte) {
	var w waveView
	var r EEBatchRenewReq
	werr, oerr := w.load(data), r.unmarshal(data)
	if !sameErr(werr, oerr) {
		t.Fatalf("EEBatchRenewReq: view %v, oracle %v", werr, oerr)
	}
	if oerr != nil {
		return
	}
	tail := w.outcomes()
	if w.n != len(r.Items) || tail.len() != w.n || w.tail != len(r.wire) || !bytes.Equal(w.body(), r.wire[:r.bodyLen]) ||
		tail.live() != liveOf(r.Status) {
		t.Fatalf("view of %d items (tail at %d, %d live), oracle %d (wire %d B, %d live)", w.n, w.tail, tail.live(),
			len(r.Items), len(r.wire), liveOf(r.Status))
	}
	for i, it := range r.Items {
		num, ver, bw, expT := w.itemLeg(i)
		if w.item(i) != it || w.itemID(i) != it.ID || w.itemSrc(i) != it.ID.SrcAS || num != it.ID.Num || ver != it.Ver ||
			bw != it.BwKbps || expT != it.ExpT {
			t.Fatalf("item %d: view %+v, oracle %+v", i, w.item(i), it)
		}
		if tail.grant(i) != r.Accums[i] || tail.status(i) != r.Status[i] {
			t.Fatalf("item %d's tail: view %d %v, oracle %d %v", i, tail.grant(i), tail.status(i), r.Accums[i], r.Status[i])
		}
	}
	checkChain(t, &w.chainView, r.SegIDs, r.Splits, r.Path, r.Macs, r.bodyLen)
}

func checkEERespView(t *testing.T, data []byte) {
	var v eeRespView
	var r EESetupResp
	verr, oerr := v.load(data), r.unmarshal(data)
	if !sameErr(verr, oerr) {
		t.Fatalf("EESetupResp: view %v, oracle %v", verr, oerr)
	}
	if oerr != nil {
		return
	}
	if v.refusal() != r.Refusal || v.failedAt() != int(r.FailedAt) || v.final() != r.FinalKbps || v.n != len(r.EncAuths) {
		t.Fatalf("view %v at %d, %d kbps, %d auths; oracle %+v", v.refusal(), v.failedAt(), v.final(), v.n, r)
	}
	off := eeRespFixedLen
	for i, want := range r.EncAuths {
		var enc []byte
		if enc, off = v.auth(off); !bytes.Equal(enc, want) {
			t.Fatalf("authenticator %d: view %x, oracle %x", i, enc, want)
		}
	}
	for n := max(v.n-1, 0); n <= v.n+1; n++ {
		for idx := range n {
			if got, want := v.slot(n, idx), eeRespSlot(&r, len(data), n, idx); got != want {
				t.Fatalf("slot of hop %d of %d: view %d, oracle %d", idx, n, got, want)
			}
		}
	}
}

func checkWaveRespView(t *testing.T, data []byte) {
	var v waveRespView
	var r EEBatchRenewResp
	verr, oerr := v.load(data), r.unmarshal(data)
	if !sameErr(verr, oerr) {
		t.Fatalf("EEBatchRenewResp: view %v, oracle %v", verr, oerr)
	}
	if oerr != nil {
		return
	}
	final := v.outcomes()
	if v.refusal() != r.Refusal || v.failedAt() != int(r.FailedAt) || v.n != len(r.Granted) || final.len() != v.n ||
		v.nb != len(r.Blobs) || v.size != blobLen(liveOf(r.Status)) {
		t.Fatalf("view %v at %d, %d items, %d blobs of %d B; oracle %+v", v.refusal(), v.failedAt(), v.n, v.nb, v.size, r)
	}
	for i := range r.Granted {
		if final.grant(i) != r.Granted[i] || final.status(i) != r.Status[i] {
			t.Fatalf("item %d: view %d %v, oracle %d %v", i, final.grant(i), final.status(i), r.Granted[i], r.Status[i])
		}
	}
	for h, blob := range r.Blobs {
		if !bytes.Equal(v.blob(h), blob) {
			t.Fatalf("blob %d differs", h)
		}
	}
}

// benchSetup is the tag-4 request golden: five hops over three SegRs.
func benchSetup() []byte { return requestGoldens()["ee_setup_req"].msg.Marshal() }

// benchWave is a wave of DefaultBatchSize items over the goldens' chain.
func benchWave() []byte {
	w := *requestGoldens()["ee_batch_renew_req"].msg.(*EEBatchRenewReq)
	w.Items, w.Accums, w.Status = nil, nil, nil
	for i := range DefaultBatchSize {
		w.Items = append(w.Items, EEBatchItem{ID: reservation.ID{SrcAS: topology.MustIA(1, 11), Num: uint32(i)}, Ver: 2, BwKbps: 1_000, ExpT: 7})
		w.Accums = append(w.Accums, 1_000)
		w.Status = append(w.Status, Granted)
	}
	return w.Marshal()
}

// BenchmarkEESetupReqView checks a tag-4 request of five hops over three SegRs
// as a hop does; BenchmarkEESetupReqOracle decodes it as a hop did before.
func BenchmarkEESetupReqView(b *testing.B) {
	msg := benchSetup()
	var v eeReqView
	for range b.N {
		if v.load(msg) != nil {
			b.Fatal("does not load")
		}
	}
}

func BenchmarkEESetupReqOracle(b *testing.B) {
	msg := benchSetup()
	var r EESetupReq
	for range b.N {
		if r.unmarshal(msg) != nil {
			b.Fatal("does not decode")
		}
	}
}

// BenchmarkWaveView checks a wave of DefaultBatchSize items as a hop does and
// reports the cost per item; BenchmarkWaveOracle decodes it as a hop did
// before.
func BenchmarkWaveView(b *testing.B) {
	msg := benchWave()
	var w waveView
	for range b.N {
		if w.load(msg) != nil {
			b.Fatal("does not load")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/DefaultBatchSize, "ns/item")
}

func BenchmarkWaveOracle(b *testing.B) {
	msg := benchWave()
	var r EEBatchRenewReq
	for range b.N {
		if r.unmarshal(msg) != nil {
			b.Fatal("does not decode")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/DefaultBatchSize, "ns/item")
}
