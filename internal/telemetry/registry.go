package telemetry

import "sync"

// Registry owns the named instruments of one component (conventionally one
// per AS, labelled by its IA). Lookup is get-or-create and cheap enough for
// setup paths; hot paths should nevertheless capture the returned pointer
// once rather than re-resolving the name per event. Safe for concurrent use.
type Registry struct {
	label string

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tracers  map[string]*Tracer
}

// NewRegistry builds an empty registry with a display label.
func NewRegistry(label string) *Registry {
	return &Registry{
		label:    label,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		tracers:  make(map[string]*Tracer),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = NewCounter()
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = NewGauge()
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Tracer returns the named tracer, creating it with the given ring capacity
// (0 → DefaultTraceCap) on first use; the capacity of an existing tracer is
// not changed.
func (r *Registry) Tracer(name string, capacity int) *Tracer {
	r.mu.RLock()
	t, ok := r.tracers[name]
	r.mu.RUnlock()
	if ok {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok = r.tracers[name]; !ok {
		t = NewTracer(capacity)
		r.tracers[name] = t
	}
	return t
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Label      string                  `json:"label"`
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Traces     map[string][]Event      `json:"traces,omitempty"`
}

// Snapshot captures all instruments. Instruments created concurrently with
// the call may or may not be included.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Label:      r.label,
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
		Traces:     make(map[string][]Event, len(r.tracers)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	for name, t := range r.tracers {
		s.Traces[name] = t.Events()
	}
	return s
}
