package cserv

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"colibri/internal/packet"
	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// Directory implements the dissemination of segment reservations of
// Appendix C: initiators register their SegRs (optionally with an AS
// whitelist), and CServs query it to assemble SegR chains covering a
// destination. In a deployment this is the hierarchy of CServ caches
// contacting remote CServs; here one shared directory with per-query
// filtering models the same information flow. The answer to a query is
// memoised until the offers change — App. C's cache invalidation is Register,
// and an Unregister or Expire that deletes, each of which empties the memo —
// so a setup between two changes enumerates, sorts and joins nothing.
type Directory struct {
	mu     sync.RWMutex
	offers map[reservation.ID]*Offer
	// memo maps a query to its non-empty answer; gen counts the writes that
	// emptied it, so an answer enumerated across one is not stored.
	memo map[dirQuery][]dirChain
	gen  uint64
}

// Offer is one registered segment reservation available for EER creation.
// A registered Offer must not change: the directory hands the same pointer
// to every query and keeps it in memoised answers. To change an offer —
// its bandwidth, expiry or whitelist — register a replacement with the same
// ID.
type Offer struct {
	ID  reservation.ID
	Seg *segment.Segment
	// Bw is the currently active bandwidth (informational, for chain
	// selection).
	Bw   uint64
	ExpT uint32
	// Whitelist restricts which ASes may build EERs over the SegR
	// (nil = public), per Appendix C.
	Whitelist map[topology.IA]bool
}

// usableBy reports whether the offer admits use by the given AS.
func (o *Offer) usableBy(ia topology.IA) bool {
	return o.Whitelist == nil || o.Whitelist[ia]
}

// dirQuery is one query of the directory.
type dirQuery struct {
	src, dst, requester topology.IA
	limit               int
}

// dirChain is one joinable sequence of offers with the path it joins to and
// the layout an EER request over it carries: the SegR IDs, the transfer-AS
// positions (cumulative segment ends), the path's hops and their hop fields.
// It is shared by every request over the chain and read-only: the grants of
// setups over it share the layout's slices (EERGrant's chain).
type dirChain struct {
	offers []*Offer
	path   *segment.Path
	segIDs []reservation.ID
	splits []uint8
	hops   []PathHop
	fields []packet.HopField
}

// NewDirectory builds an empty directory.
func NewDirectory() *Directory {
	return &Directory{offers: make(map[reservation.ID]*Offer), memo: make(map[dirQuery][]dirChain)}
}

// invalidate empties the memo; the caller holds the write lock.
func (d *Directory) invalidate() {
	clear(d.memo)
	d.gen++
}

// Register inserts an offer or replaces the one with its ID.
func (d *Directory) Register(o *Offer) {
	d.mu.Lock()
	d.offers[o.ID] = o
	d.invalidate()
	d.mu.Unlock()
}

// Unregister removes an offer.
func (d *Directory) Unregister(id reservation.ID) {
	d.mu.Lock()
	if _, ok := d.offers[id]; ok {
		delete(d.offers, id)
		d.invalidate()
	}
	d.mu.Unlock()
}

// Expire drops offers past their expiry.
func (d *Directory) Expire(now uint32) {
	d.mu.Lock()
	n := len(d.offers)
	for id, o := range d.offers {
		if now >= o.ExpT {
			delete(d.offers, id)
		}
	}
	if len(d.offers) != n {
		d.invalidate()
	}
	d.mu.Unlock()
}

// Len returns the number of registered offers.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.offers)
}

// chains returns the joinable offer sequences from src to dst usable by
// requester, shortest paths first, capped at limit (0: all): the memoised
// answer if the offers have not changed since it was enumerated, else a fresh
// enumeration, which is memoised unless it is empty (so queries towards
// unreachable IAs cannot grow the memo). The result is shared; callers must
// not modify it.
func (d *Directory) chains(src, dst, requester topology.IA, limit int) []dirChain {
	key := dirQuery{src, dst, requester, limit}
	d.mu.RLock()
	cs, ok := d.memo[key]
	gen := d.gen
	d.mu.RUnlock()
	if ok {
		return cs
	}
	cs = d.enumerate(src, dst, requester, limit)
	if len(cs) > 0 {
		d.mu.Lock()
		if d.gen == gen {
			d.memo[key] = cs
		}
		d.mu.Unlock()
	}
	return cs
}

// enumerate is chains without the memo.
func (d *Directory) enumerate(src, dst, requester topology.IA, limit int) []dirChain {
	d.mu.RLock()
	var ups, cores, downs []*Offer
	// Collection order is irrelevant: each bucket is sorted by ID below
	// before enumeration.
	//colibri:allow(determinism)
	for _, o := range d.offers {
		if !o.usableBy(requester) {
			continue
		}
		switch o.Seg.Type {
		case segment.Up:
			if o.Seg.SrcIA() == src {
				ups = append(ups, o)
			}
		case segment.Core:
			cores = append(cores, o)
		case segment.Down:
			if o.Seg.DstIA() == dst {
				downs = append(downs, o)
			}
		}
	}
	d.mu.RUnlock()

	// The offers map iterates in random order; sort each bucket so chain
	// enumeration — and therefore path selection and every control-plane
	// trace downstream of it — is deterministic across runs.
	for _, bucket := range [][]*Offer{ups, cores, downs} {
		sort.Slice(bucket, func(i, j int) bool {
			if bucket[i].ID.SrcAS != bucket[j].ID.SrcAS {
				return bucket[i].ID.SrcAS < bucket[j].ID.SrcAS
			}
			return bucket[i].ID.Num < bucket[j].ID.Num
		})
	}

	var out []dirChain
	try := func(chain ...*Offer) {
		segs := make([]*segment.Segment, len(chain))
		for i, o := range chain {
			segs[i] = o.Seg
		}
		if path, err := segment.Join(segs...); err == nil {
			out = append(out, dirChain{offers: append([]*Offer(nil), chain...), path: path})
		}
	}
	// Single-segment chains.
	for _, u := range ups {
		if u.Seg.DstIA() == dst {
			try(u)
		}
	}
	for _, dn := range downs {
		if dn.Seg.SrcIA() == src {
			try(dn)
		}
	}
	for _, c := range cores {
		if c.Seg.SrcIA() == src && c.Seg.DstIA() == dst {
			try(c)
		}
	}
	// Two-segment chains.
	for _, u := range ups {
		for _, dn := range downs {
			if u.Seg.DstIA() == dn.Seg.SrcIA() {
				try(u, dn)
			}
		}
		for _, c := range cores {
			if u.Seg.DstIA() == c.Seg.SrcIA() && c.Seg.DstIA() == dst {
				try(u, c)
			}
		}
	}
	for _, c := range cores {
		if c.Seg.SrcIA() != src {
			continue
		}
		for _, dn := range downs {
			if c.Seg.DstIA() == dn.Seg.SrcIA() {
				try(c, dn)
			}
		}
	}
	// Three-segment chains.
	for _, u := range ups {
		for _, c := range cores {
			if u.Seg.DstIA() != c.Seg.SrcIA() {
				continue
			}
			for _, dn := range downs {
				if c.Seg.DstIA() == dn.Seg.SrcIA() {
					try(u, c, dn)
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return chainLen(out[i].offers) < chainLen(out[j].offers) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	for i := range out {
		out[i].layOut()
	}
	return out
}

// layOut derives from c's offers and path what a request over c carries.
func (c *dirChain) layOut() {
	c.segIDs = make([]reservation.ID, len(c.offers))
	pos := 0
	for i, o := range c.offers {
		c.segIDs[i] = o.ID
		if i < len(c.offers)-1 {
			pos += o.Seg.Len() - 1
			c.splits = append(c.splits, uint8(pos))
		}
	}
	c.hops = make([]PathHop, len(c.path.Hops))
	for i, h := range c.path.Hops {
		c.hops[i] = PathHop{IA: h.IA, In: h.In, Eg: h.Eg}
	}
	c.fields = HopFields(c.hops)
}

func chainLen(chain []*Offer) int {
	n := 0
	for _, o := range chain {
		n += o.Seg.Len() - 1
	}
	return n + 1
}

// maxChains caps the chains a setup tries.
const maxChains = 8

// chainsTo returns the directory's chains from this AS to dstIA.
func (s *Service) chainsTo(dstIA topology.IA) ([]dirChain, error) {
	if s.dir == nil {
		return nil, fmt.Errorf("cserv: no directory configured")
	}
	cs := s.dir.chains(s.ia, dstIA, s.ia, maxChains)
	if len(cs) == 0 {
		return nil, fmt.Errorf("cserv: no segment reservations from %s to %s", s.ia, dstIA)
	}
	return cs, nil
}

// SegRsTo returns joinable SegR chains from this AS to dstIA, shortest
// first. It is what the end-host daemon queries before an EER request
// (Appendix C).
func (s *Service) SegRsTo(dstIA topology.IA) ([][]*Offer, error) {
	cs, err := s.chainsTo(dstIA)
	if err != nil {
		return nil, err
	}
	out := make([][]*Offer, len(cs))
	for i := range cs {
		out[i] = slices.Clone(cs[i].offers)
	}
	return out, nil
}
