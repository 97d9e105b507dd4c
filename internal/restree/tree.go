// Package restree implements the time-based bandwidth-reservation data
// structure of Brodnik & Nilsson ("A Data Structure for a Time-Based
// Bandwidth Reservations Problem"), adapted to Colibri's control plane:
//
// Time is discretized into fixed-width epochs. A segment tree over one
// "horizon" of epochs supports adding a bandwidth demand over an epoch
// interval and querying the maximum aggregate demand over any interval, both
// in O(log n). Each tree node carries a pending add that applies to its whole
// subtree (range-add without push-down) and the maximum over the subtree
// including that add, so updates never allocate and touch O(log n) nodes.
//
// The tree is an implicit heap: node 1 is the root, node i's children are 2i
// and 2i+1, and leaf j is node n+j. Add works bottom-up without recursion: it
// climbs from the two boundary leaves, applying the delta to the canonical
// nodes that tile the interval, then recomputes the maxima along the two
// boundary paths to the root — the only nodes above a canonical one. Max is
// the recursive descent: a push-free iterative version would have to carry
// every ancestor's pending add into the two running maxima.
//
// Admission over a request window [start, exp) then becomes a single
// MaxDemand query instead of a recomputation over all live reservations —
// this is what makes the EER admission of a hop an O(log n) operation
// (Profile, the demand ledger under every SegR) and what lets the sharded
// CServ (cserv.CPlane) absorb millions of end-to-end reservations.
//
// The leaf array is a ring: absolute epoch e maps to leaf e mod n. A tree
// therefore represents any sliding window of at most n consecutive epochs.
// Correctness does not require zeroing stale leaves: every interval that is
// added is later subtracted exactly once (on teardown, renewal truncation, or
// expiry), so a leaf's value is always the sum of the *live* intervals
// covering its current absolute epoch.
package restree

// Epoch is an absolute, non-negative epoch number (time divided by the epoch
// width). Intervals are half-open: [start, end).
type Epoch int64

// Tree is a range-add / range-max segment tree over a ring of epochs. The
// zero value is not usable; use NewTree. Not safe for concurrent use —
// callers (admission shards) hold their own locks.
type Tree struct {
	n   int     // number of leaves, power of two
	add []int64 // pending add per node, applied to the whole subtree
	mx  []int64 // max over the subtree, including add at and below the node
}

// NewTree returns a tree spanning at least the given number of epochs
// (rounded up to a power of two, minimum 2).
func NewTree(epochs int) *Tree {
	n := 2
	for n < epochs {
		n <<= 1
	}
	return &Tree{n: n, add: make([]int64, 2*n), mx: make([]int64, 2*n)}
}

// Epochs returns the number of epochs the tree spans (its ring size).
func (t *Tree) Epochs() int { return t.n }

// check panics on malformed intervals; misuse is a programming error and the
// constant-string panic keeps the hot path allocation-free. It stays out of
// line so the panic values are not attributed to the nomalloc-annotated
// callers (escape analysis reports even statically-allocated panic strings
// as escaping).
//
//go:noinline
func (t *Tree) check(start, end Epoch) {
	if start < 0 {
		panic("restree: negative epoch")
	}
	if end <= start {
		panic("restree: empty or inverted interval")
	}
	if int(end-start) > t.n {
		panic("restree: interval exceeds tree horizon")
	}
}

// wrap maps the absolute interval [start, end) onto one or two leaf-index
// ranges; the second range is empty (l2 == r2 == 0) when the interval does
// not wrap around the ring.
func (t *Tree) wrap(start, end Epoch) (l1, r1, l2, r2 int) {
	span := int(end - start)
	l1 = int(start) & (t.n - 1)
	if l1+span <= t.n {
		return l1, l1 + span, 0, 0
	}
	return l1, t.n, 0, l1 + span - t.n
}

// Add adds delta to every epoch in [start, end). The interval span must be
// positive and at most Epochs().
//
//colibri:nomalloc
func (t *Tree) Add(start, end Epoch, delta int64) {
	t.check(start, end)
	l1, r1, l2, r2 := t.wrap(start, end)
	t.addRange(l1, r1, delta)
	if l2 < r2 {
		t.addRange(l2, r2, delta)
	}
}

// AddAll adds delta to every epoch of the ring in O(1) — the representation
// of an untimed reservation.
//
//colibri:nomalloc
func (t *Tree) AddAll(delta int64) {
	t.add[1] += delta
	t.mx[1] += delta
}

// Max returns the maximum aggregate over [start, end).
//
//colibri:nomalloc
func (t *Tree) Max(start, end Epoch) int64 {
	t.check(start, end)
	l1, r1, l2, r2 := t.wrap(start, end)
	m := t.query(1, 0, t.n, l1, r1)
	if l2 < r2 {
		if m2 := t.query(1, 0, t.n, l2, r2); m2 > m {
			m = m2
		}
	}
	return m
}

// Reset zeroes every epoch of the ring.
func (t *Tree) Reset() {
	clear(t.add)
	clear(t.mx)
}

// MaxAll returns the maximum aggregate over the whole ring in O(1).
//
//colibri:nomalloc
func (t *Tree) MaxAll() int64 { return t.mx[1] }

// At returns the aggregate demand at a single epoch.
//
//colibri:nomalloc
func (t *Tree) At(e Epoch) int64 { return t.Max(e, e+1) }

// Snapshot calls f for every epoch in [start, end) with the epoch's aggregate
// demand, in ascending epoch order — the telemetry iterator. It allocates
// nothing itself; f must not mutate the tree.
func (t *Tree) Snapshot(start, end Epoch, f func(e Epoch, demand int64)) {
	t.check(start, end)
	for e := start; e < end; e++ {
		f(e, t.At(e))
	}
}

// addRange adds delta over the non-empty leaf range [l, r): first to the
// canonical nodes, climbing from both ends at once, then to the maxima of every
// ancestor of the two boundary leaves.
func (t *Tree) addRange(l, r int, delta int64) {
	l, r = l+t.n, r+t.n
	first, last := l, r-1
	for ; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			t.add[l] += delta
			t.mx[l] += delta
			l++
		}
		if r&1 == 1 {
			r--
			t.add[r] += delta
			t.mx[r] += delta
		}
	}
	t.pull(first, last)
}

// pull recomputes the maximum of every proper ancestor of leaves i and j,
// level by level, so a node the two paths share is recomputed once and after
// both of its children.
func (t *Tree) pull(i, j int) {
	for i, j = i>>1, j>>1; i > 0; i, j = i>>1, j>>1 {
		t.mx[i] = max(t.mx[2*i], t.mx[2*i+1]) + t.add[i]
		if j != i {
			t.mx[j] = max(t.mx[2*j], t.mx[2*j+1]) + t.add[j]
		}
	}
}

// query returns the max over the intersection of [l, r) with the node's
// range [lo, hi); the intersection is non-empty by construction.
func (t *Tree) query(node, lo, hi, l, r int) int64 {
	if l <= lo && hi <= r {
		return t.mx[node]
	}
	mid := (lo + hi) >> 1
	if r <= mid {
		return t.query(2*node, lo, mid, l, r) + t.add[node]
	}
	if l >= mid {
		return t.query(2*node+1, mid, hi, l, r) + t.add[node]
	}
	a := t.query(2*node, lo, mid, l, r)
	if b := t.query(2*node+1, mid, hi, l, r); b > a {
		a = b
	}
	return a + t.add[node]
}
