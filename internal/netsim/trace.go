// trace.go — event-trace recording: the full key of every executed event,
// so two runs can be compared entry for entry rather than by final state
// alone. The engine's determinism claim — the same trace at every GOMAXPROCS
// as one global heap run in key order — is checked on these traces.
package netsim

import "fmt"

// TraceEntry is the deterministic identity of one event: its timestamp and
// full ordering key. Callbacks are opaque, but every side effect a callback
// has on the simulation schedule shows up as child keys, so two runs with
// equal traces executed equal event sequences; scenario state digests close
// the loop on user-visible state.
type TraceEntry struct {
	At  int64
	Dst int32  // shard the callback executes on
	Src int32  // shard that scheduled it
	Seq uint64 // per-(Src,Dst) channel sequence (FIFO per channel)
}

func (e TraceEntry) String() string {
	return fmt.Sprintf("t=%d dst=%d src=%d seq=%d", e.At, e.Dst, e.Src, e.Seq)
}

// less is the total event order: time, then destination shard, then source
// shard, then channel FIFO. The non-time components only break exact
// timestamp ties; they are schedule-independent by construction.
func (e TraceEntry) less(o TraceEntry) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	if e.Dst != o.Dst {
		return e.Dst < o.Dst
	}
	if e.Src != o.Src {
		return e.Src < o.Src
	}
	return e.Seq < o.Seq
}
