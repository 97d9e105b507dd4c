package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"colibri/internal/cserv"
	"colibri/internal/topology"
)

// spanName names the layer boundary a span was taken at. The harness takes
// every span from outside the program, around a call into a layer's public
// function; nothing under internal/ knows it is being traced.
type spanName uint8

const (
	spPkt       spanName = iota // one traced packet journey (the op)
	spBuild                     // gateway.Worker.Build
	spProcess                   // router.Worker.Process, one per hop
	spDeliver                   // Packet.DecodeFromBytes + payload copy at the destination
	spDrop                      // router.Worker.Process that returned an error
	spSetup                     // one traced EER setup (the op): spRequest + spInstall
	spRenew                     // one traced solo EER renewal (the op)
	spRequest                   // cserv.Service.RequestEER / RenewEER at the source AS
	spInstall                   // gateway.Gateway.Install
	spCall                      // cserv.Transport.Call: one control-plane hop and everything behind it
	spWave                      // cserv.KeeperFleet.Tick (the op)
	spCServTick                 // cserv.Service.Tick, one per AS
	spGwExpire                  // gateway.Gateway.Expire, one per AS
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"pkt", "gateway.build", "router.process", "packet.deliver", "router.drop",
	"eer_setup", "eer_renew", "cserv.request", "gateway.install", "cserv.call",
	"fleet.wave", "cserv.tick", "gateway.expire",
}

const noSpan = int32(-1)

// span is one timed interval. Spans of one op share its id; parent is the
// index of the span that was open when this one began.
type span struct {
	start, end int64 // ns since the recorder's base
	parent     int32
	op         uint32
	name       spanName
	hop        uint8 // router hop index, or the callee's position on the path
	tag        uint8 // cserv message tag of an spCall
	last       bool  // spProcess: the verdict was deliver
	reqB       uint32
	respB      uint32
}

// recorder is the in-memory span store: preallocated, append-only, written
// out only after the run. The driver is one goroutine, so the open-span
// stack is a single cursor.
type recorder struct {
	base  time.Time
	spans []span
	cur   int32
	op    uint32
	// on gates the transport wrapper: control-plane calls outside a traced
	// op (housekeeping, plain rounds) pass straight through.
	on bool
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, capacity), cur: noSpan}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// room reports whether n more spans fit without growing the store.
func (r *recorder) room(n int) bool { return len(r.spans)+n <= cap(r.spans) }

// beginOp opens a top-level span and gives it a fresh op id.
func (r *recorder) beginOp(name spanName) int32 {
	r.op++
	r.on = true
	return r.begin(name)
}

func (r *recorder) endOp(i int32) {
	r.end(i)
	r.on = false
}

func (r *recorder) begin(name spanName) int32 {
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{parent: r.cur, op: r.op, name: name})
	r.cur = i
	r.spans[i].start = r.now()
	return i
}

func (r *recorder) end(i int32) {
	s := &r.spans[i]
	s.end = r.now()
	r.cur = s.parent
}

// selfTimes returns every span's duration minus the part its direct
// children cover. Children of a span never overlap (one goroutine, strict
// nesting), so the covered part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].end - spans[i].start
	}
	for i := range spans {
		if p := spans[i].parent; p != noSpan {
			self[p] -= spans[i].end - spans[i].start
		}
	}
	return self
}

// writeSpans dumps the spans as CSV (the exit-time export the recorder
// exists for; nothing is written while measuring).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,name,op,parent,start_ns,end_ns,self_ns,hop,tag,req_bytes,resp_bytes")
	self := selfTimes(spans)
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			i, spanNames[s.name], s.op, s.parent, s.start, s.end, self[i], s.hop, s.tag, s.reqB, s.respB)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTransport wraps one AS's control-plane transport (the existing
// core.Options.WrapTransport hook) and records a span per Call while a
// traced op is open. Forwarding is recursive, so a hop's span encloses the
// spans of the hops behind it and its self time is the span minus its child.
type tracedTransport struct {
	inner cserv.Transport
	w     *world
}

func (t *tracedTransport) Call(dst topology.IA, msg []byte) ([]byte, error) {
	r := t.w.rec
	if !r.on {
		return t.inner.Call(dst, msg)
	}
	i := r.begin(spCall)
	resp, err := t.inner.Call(dst, msg)
	r.end(i)
	s := &r.spans[i]
	s.hop = t.w.pathPos(dst)
	if len(msg) > 0 {
		s.tag = msg[0]
	}
	s.reqB, s.respB = uint32(len(msg)), uint32(len(resp))
	if s.tag == tagEESetup && t.w.sampleReq == nil {
		// Keep one real setup request for the leaf probes.
		t.w.sampleReq = append([]byte(nil), msg...)
	}
	return resp, err
}

// The cserv wire tags the harness tells apart (internal/cserv/messages.go
// keeps them unexported; a message's first byte is its tag).
const (
	tagEESetup      = 4
	tagEERenew      = 5
	tagEEBatchRenew = 7
)
