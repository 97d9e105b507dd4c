package cserv

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"colibri/internal/reservation"
	"colibri/internal/segment"
	"colibri/internal/topology"
)

// checkChains compares the directory's answer to q, memoised or not, with a
// fresh enumeration: the same offers in the same order, and per chain the
// joined path and the request layout a setup over it carries, each also
// derived here from the offers alone.
func checkChains(t *testing.T, d *Directory, q dirQuery) {
	t.Helper()
	got := d.chains(q.src, q.dst, q.requester, q.limit)
	want := d.enumerate(q.src, q.dst, q.requester, q.limit)
	if len(got) != len(want) {
		t.Fatalf("%+v: %d chains memoised, %d enumerated", q, len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if !slices.Equal(g.offers, w.offers) || !slices.Equal(g.path.Hops, w.path.Hops) {
			t.Fatalf("%+v: chain %d memoised as %v over %v, enumerated as %v over %v", q, i, g.offers, g.path, w.offers, w.path)
		}
		segs := make([]*segment.Segment, len(g.offers))
		var ids []reservation.ID
		var splits []uint8
		pos := 0
		for k, o := range g.offers {
			segs[k], ids = o.Seg, append(ids, o.ID)
			if k < len(g.offers)-1 {
				pos += o.Seg.Len() - 1
				splits = append(splits, uint8(pos))
			}
		}
		path, err := segment.Join(segs...)
		if err != nil || !slices.Equal(path.Hops, g.path.Hops) {
			t.Fatalf("%+v: chain %d's path %v, joined afresh %v (%v)", q, i, g.path, path, err)
		}
		hops := make([]PathHop, len(path.Hops))
		for k, h := range path.Hops {
			hops[k] = PathHop{IA: h.IA, In: h.In, Eg: h.Eg}
		}
		if !slices.Equal(g.segIDs, ids) || !slices.Equal(g.splits, splits) || !slices.Equal(g.hops, hops) {
			t.Fatalf("%+v: chain %d lays out %v %v %v, want %v %v %v", q, i, g.segIDs, g.splits, g.hops, ids, splits, hops)
		}
	}
}

// FuzzDirectoryChains runs a tape of directory writes — registering a new
// offer or a replacement, with or without a whitelist; unregistering; expiring
// at a random time — and queries over random (src, dst, requester, limit) on
// the TwoISD topology's segments, some of which join into loops. After every
// operation each query asked so far must get from the memo what a fresh
// enumeration gives. Each operation is 4 bytes: the op, then three operands.
func FuzzDirectoryChains(f *testing.F) {
	topo := topology.TwoISD(topology.LinkSpec{})
	reg := segment.Discover(topo, segment.DiscoverOpts{})
	ias := topo.SortedIAs()
	var segs []*segment.Segment
	for _, a := range ias {
		segs = append(segs, reg.UpSegments(a)...)
		segs = append(segs, reg.DownSegments(a)...)
		for _, b := range ias {
			segs = append(segs, reg.CoreSegments(a, b)...)
		}
	}
	const (
		opRegister = iota
		opUnregister
		opExpire
		opQuery
		nOps
	)
	// Every segment registered public, then every query from every AS.
	var all []byte
	for i := range segs {
		all = append(all, opRegister, byte(i), byte(i), 0x0f)
	}
	for a := range ias {
		for b := range ias {
			all = append(all, opQuery, byte(a), byte(b), 0)
		}
	}
	f.Add(all)
	// 1-11 → 2-11 over every chain, then churn under the memoised answer.
	f.Add(append(slices.Clone(all),
		opQuery, 3, 5, 0xc0,
		opRegister, 0, 0, 0x3f, // a replacement of the first offer, whitelisted
		opQuery, 3, 5, 0x43,
		opUnregister, 1, 1, 0,
		opExpire, 0, 0, 7,
		opRegister, 2, 9, 0x1f,
		opExpire, 0, 0, 0x0f,
		opQuery, 3, 5, 0,
	))
	f.Add([]byte{opRegister, 1, 2, 3, opQuery, 1, 2, 3, opExpire, 1, 1, 1, opQuery, 4, 5, 6})
	f.Fuzz(func(t *testing.T, tape []byte) {
		d := NewDirectory()
		var asked []dirQuery
		for n := 0; n+4 <= len(tape); n += 4 {
			op, a, b, c := tape[n]%nOps, int(tape[n+1]), int(tape[n+2]), tape[n+3]
			seg := segs[a%len(segs)]
			id := reservation.ID{SrcAS: seg.SrcIA(), Num: uint32(b % 4)}
			switch op {
			case opRegister:
				o := &Offer{ID: id, Seg: segs[b%len(segs)], ExpT: uint32(c % 16)}
				if c&0x20 != 0 {
					o.Whitelist = map[topology.IA]bool{ias[int(c>>6)%len(ias)]: true}
				}
				d.Register(o)
			case opUnregister:
				d.Unregister(id)
			case opExpire:
				d.Expire(uint32(c % 16))
			case opQuery:
				q := dirQuery{src: ias[a%len(ias)], dst: ias[b%len(ias)], requester: ias[a%len(ias)], limit: []int{maxChains, 0, 1, 2}[c>>6]}
				if c&0x3 != 0 {
					q.requester = ias[int(c>>2)%len(ias)]
				}
				if !slices.Contains(asked, q) && len(asked) < 32 {
					asked = append(asked, q)
				}
			}
			for _, q := range asked {
				checkChains(t, d, q)
			}
		}
	})
}

// TestDirectoryChurnUnderSetups has two initiators set EERs up while a third
// goroutine changes the directory under them: it re-registers offers with and
// without a whitelist, unregisters and re-registers one, and expires a decoy.
// Under -race it finds unsynchronized access to the memo; every grant must
// carry the σs of its path, and a setup may only fail for want of a chain.
func TestDirectoryChurnUnderSetups(t *testing.T) {
	f := cpFabric(t, 4, highRate)
	up, _, _ := f.setupAllSegRs(t, 1_000_000)
	alt, err := f.services[ia(1, 11)].SetupSegment(f.reg.UpSegments(ia(1, 11))[1], 0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.services[ia(1, 2)].SetupSegment(f.reg.UpSegments(ia(1, 2))[0], 0, 1_000_000); err != nil {
		t.Fatal(err)
	}
	offers := map[reservation.ID]Offer{}
	for _, src := range []topology.IA{ia(1, 11), ia(1, 2)} {
		chains, err := f.services[src].SegRsTo(ia(2, 11))
		if err != nil {
			t.Fatal(err)
		}
		for _, chain := range chains {
			for _, o := range chain {
				offers[o.ID] = *o
			}
		}
	}
	register := func(id reservation.ID, whitelist map[topology.IA]bool) {
		o := offers[id]
		o.Whitelist = whitelist
		f.dir.Register(&o)
	}

	const per = 200
	var stop atomic.Bool
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		// The decoy is usable by nobody here; expiring it only empties the memo.
		decoy := Offer{ID: reservation.ID{SrcAS: ia(9, 9), Num: 1}, Seg: offers[up.ID].Seg, ExpT: t0 + 1,
			Whitelist: map[topology.IA]bool{ia(9, 9): true}}
		for i := 0; !stop.Load(); i++ {
			switch i % 4 {
			case 0:
				register(up.ID, map[topology.IA]bool{ia(9, 9): true})
			case 1:
				register(up.ID, nil)
				f.dir.Unregister(alt.ID)
			case 2:
				register(alt.ID, nil)
				d := decoy
				f.dir.Register(&d)
			case 3:
				f.dir.Expire(t0 + 1)
			}
		}
	}()
	var grants [2][]*EERGrant
	var failures [2]int
	var setups sync.WaitGroup
	for w, src := range []*Service{f.services[ia(1, 11)], f.services[ia(1, 2)]} {
		setups.Add(1)
		go func(w int, src *Service) {
			defer setups.Done()
			for i := 0; i < per; i++ {
				g, err := src.RequestEER(uint32(w*1000+i), uint32(i), ia(2, 11), 100)
				switch {
				case err == nil:
					grants[w] = append(grants[w], g)
				case errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), "no segment reservations"):
					t.Errorf("initiator %d setup %d: %v", w, i, err)
					return
				default:
					failures[w]++
				}
			}
		}(w, src)
	}
	setups.Wait()
	stop.Store(true)
	churn.Wait()
	for w := range grants {
		if len(grants[w]) == 0 {
			t.Errorf("initiator %d: no setup succeeded (%d found no chain)", w, failures[w])
		}
		for _, g := range grants[w] {
			checkHopAuths(t, f, g)
		}
	}
	t.Logf("grants %d / %d, no chain %d / %d", len(grants[0]), len(grants[1]), failures[0], failures[1])
	// Quiet again: every offer back and public, the next setup finds its chain.
	register(up.ID, nil)
	register(alt.ID, nil)
	if _, err := f.services[ia(1, 11)].RequestEER(1, 1, ia(2, 11), 100); err != nil {
		t.Fatal(err)
	}
}
