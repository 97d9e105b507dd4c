package netsim

import "container/heap"

// runReference is the test oracle for Sim.Run: every pending event of every
// shard on one global heap, executed strictly in key order (time, dst
// shard, src shard, channel seq) on the calling goroutine, with no windows
// and no workers. Run must match it in end time, full trace and final state
// at every GOMAXPROCS. Events beyond until go back to their shards' heaps.
func runReference(s *Sim, until int64) int64 {
	var pq eventQueue
	collect := func(sh *Shard) {
		for _, ev := range sh.pq {
			heap.Push(&pq, ev)
		}
		for _, ev := range sh.outbox {
			heap.Push(&pq, ev)
		}
		sh.pq, sh.outbox = sh.pq[:0], sh.outbox[:0]
	}
	for _, sh := range s.shards {
		collect(sh)
	}
	s.running = true
	defer func() {
		s.running = false
		for _, ev := range pq {
			s.shards[ev.Dst].pq = append(s.shards[ev.Dst].pq, ev)
		}
		for _, sh := range s.shards {
			heap.Init(&sh.pq)
		}
	}()
	for len(pq) > 0 {
		ev := pq[0]
		if until > 0 && ev.At > until {
			s.now = until
			return s.now
		}
		heap.Pop(&pq)
		sh := s.shards[ev.Dst]
		s.now, sh.now = ev.At, ev.At
		sh.executed++
		if s.traceOn {
			sh.trace = append(sh.trace, ev.TraceEntry)
		}
		ev.fn()
		collect(sh) // the children it scheduled, same-shard and cross-shard
	}
	return s.now
}
