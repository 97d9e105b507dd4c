package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"colibri/internal/reservation"
	"colibri/internal/topology"
)

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 10; i++ {
		tr.Record(int64(i), EvSegSetup, "1-11/1", true, "")
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(7 + i)
		if e.Seq != wantSeq || e.TimeNs != int64(wantSeq) {
			t.Fatalf("event %d = %+v, want seq %d", i, e, wantSeq)
		}
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(0) // default capacity
	tr.Record(5, EvDrop, "", false, "router: hop validation field mismatch")
	tr.Record(6, EvEESetup, "1-11/2", true, "")
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Kind != EvDrop || evs[1].Kind != EvEESetup {
		t.Fatalf("events = %+v", evs)
	}
	if !strings.Contains(evs[0].String(), "FAIL") || !strings.Contains(evs[0].String(), "mismatch") {
		t.Fatalf("String() = %q", evs[0])
	}
	if !strings.Contains(evs[1].String(), "ok") {
		t.Fatalf("String() = %q", evs[1])
	}
}

// TestTracerConcurrent: writers record while a reader reads. Every event
// Events returns is one a writer recorded — each writer's events carry their
// writer and number in every field, so an entry torn between two events shows —
// and the sequence numbers increase strictly. Once the writers are done, the
// ring holds the last events, contiguous.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	const workers, per = 8, 2_000
	details := [...]string{"", "renewal rate limit", "replay"}
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				tr.RecordID(int64(w)<<32|int64(j), EventKind(1+j%9), uint64(w), uint32(j), j%2 == 0, details[j%3])
			}
		}()
	}
	check := func(evs []Event) {
		for i, e := range evs {
			w, j := e.TimeNs>>32, int(e.TimeNs&(1<<32-1))
			if w < 1 || w > workers || j >= per || e.Kind != EventKind(1+j%9) || e.Res != fmt.Sprintf("0-%d#%d", w, j) ||
				e.OK != (j%2 == 0) || e.Detail != details[j%3] {
				t.Errorf("event %+v was never recorded", e)
				return
			}
			if i > 0 && e.Seq <= evs[i-1].Seq {
				t.Errorf("seqs %d then %d", evs[i-1].Seq, e.Seq)
				return
			}
		}
	}
	done := make(chan struct{})
	read := make(chan int)
	go func() {
		reads := 0
		defer func() { read <- reads }()
		for {
			select {
			case <-done:
				return
			default:
			}
			check(tr.Events())
			reads++
		}
	}()
	wg.Wait()
	close(done)
	t.Logf("%d reads while writing", <-read)
	if tr.Total() != workers*per {
		t.Fatalf("Total = %d, want %d", tr.Total(), workers*per)
	}
	evs := tr.Events()
	check(evs)
	if len(evs) != 64 || evs[0].Seq != workers*per-63 {
		t.Fatalf("after the writers: %d events from #%d, want the last 64", len(evs), evs[0].Seq)
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{EvSegSetup, EvSegRenew, EvSegActivate, EvEESetup, EvEERenew, EvEEExpire, EvDrop}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "event(") || seen[s] {
			t.Fatalf("bad or duplicate kind string %q", s)
		}
		seen[s] = true
	}
}

// TestRecordIDRendersLikeIDString: an event recorded with a numeric
// reservation id reads, in Events, Event.String and the snapshot's JSON,
// exactly as if the caller had formatted reservation.ID.String() itself, and
// the string form of Record is what it always was.
func TestRecordIDRendersLikeIDString(t *testing.T) {
	reg := NewRegistry("as 1-11")
	byID, byString := reg.Tracer("numeric", 8), reg.Tracer("string", 8)
	for _, id := range []reservation.ID{
		{SrcAS: topology.MustIA(1, 11), Num: 7},
		{SrcAS: topology.MustIA(65535, 1<<48-1), Num: 1<<32 - 1},
		{},
	} {
		byID.RecordID(5, EvEERenew, uint64(id.SrcAS), id.Num, false, "renewal rate limit")
		byString.Record(5, EvEERenew, id.String(), false, "renewal rate limit")
	}
	got, want := byID.Events(), byString.Events()
	for i := range want {
		if got[i] != want[i] || got[i].String() != want[i].String() {
			t.Errorf("event %d: numeric %q, string %q", i, got[i], want[i])
		}
	}
	if s := want[0].String(); s != "#1 t=5ns ee-renew 1-11#7 FAIL (renewal rate limit)" {
		t.Errorf("Record's rendering changed: %q", s)
	}
	snap := reg.Snapshot()
	a, err := json.Marshal(snap.Traces["numeric"])
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(snap.Traces["string"])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) || !bytes.Contains(a, []byte(`"res":"65535-281474976710655#4294967295"`)) {
		t.Errorf("snapshot JSON differs:\n%s\n%s", a, b)
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	tr := NewTracer(16)
	res, detail := "1-11#7", "detail"
	if n := testing.AllocsPerRun(100, func() { tr.Record(1, EvEESetup, res, true, detail) }); n != 0 {
		t.Errorf("Record allocates %.1f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.RecordID(1, EvEESetup, 1<<48|11, 7, true, detail) }); n != 0 {
		t.Errorf("RecordID allocates %.1f times", n)
	}
}
