package telemetry

// Merge returns the element-wise sum of two snapshots (as if all samples
// had been observed by one histogram; Max is the larger of the two).
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := s
	out.Count += o.Count
	out.Sum += o.Sum
	if o.Max > out.Max {
		out.Max = o.Max
	}
	for b := range out.Buckets {
		out.Buckets[b] += o.Buckets[b]
	}
	return out
}

// Label returns the registry's display label.
func (r *Registry) Label() string { return r.label }

// Diff returns the activity between prev and s (two snapshots of the same
// registry, prev taken earlier): counters and histograms are subtracted,
// gauges keep their current level, and traces keep only events recorded
// after prev.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{
		Label:      s.Label,
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)),
		Traces:     make(map[string][]Event, len(s.Traces)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - min(v, prev.Counters[name])
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = h.Sub(prev.Histograms[name])
	}
	for name, evs := range s.Traces {
		var lastSeen uint64
		if p := prev.Traces[name]; len(p) > 0 {
			lastSeen = p[len(p)-1].Seq
		}
		kept := make([]Event, 0, len(evs))
		for _, e := range evs {
			if e.Seq > lastSeen {
				kept = append(kept, e)
			}
		}
		out.Traces[name] = kept
	}
	return out
}

// Total returns how many events were ever recorded.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Sub returns the samples present in s but not in prev, assuming prev is an
// earlier snapshot of the same histogram. Max cannot be un-merged and is
// carried over from s.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	out := s
	out.Count -= min(out.Count, prev.Count)
	out.Sum -= min(out.Sum, prev.Sum)
	for b := range out.Buckets {
		out.Buckets[b] -= min(out.Buckets[b], prev.Buckets[b])
	}
	return out
}
