// Package atomics is the atomics fixture: legacy sync/atomic targets and
// second writers of single-writer fields must be flagged; constructors and
// typed atomics with one writer must not.
package atomics

import "sync/atomic"

// C updates n through a legacy atomic.
type C struct {
	n uint64
	// owned is written only by Advance: the annotation holds — clean.
	owned atomic.Uint64 //colibri:singlewriter
	// shared is annotated single-writer but written by two functions: the
	// second writer is a finding.
	shared atomic.Int64 //colibri:singlewriter
}

// NewC initializes everything plainly before publication: clean.
func NewC() *C {
	c := &C{}
	c.n = 1
	c.owned.Store(0)
	c.shared.Store(0)
	return c
}

// Bump goes through the legacy package-level atomics: raw-target migration
// finding.
func (c *C) Bump() {
	atomic.AddUint64(&c.n, 1)
}

// Advance is owned's one writer: clean.
func (c *C) Advance() {
	c.owned.Add(1)
}

// WriteA is shared's first writer (wins the annotation).
func (c *C) WriteA() {
	c.shared.Store(1)
}

// WriteB is a second writing function: single-writer finding.
func (c *C) WriteB() {
	c.shared.Store(2)
}
