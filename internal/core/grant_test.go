package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"colibri/internal/cryptoutil"
	"colibri/internal/packet"
	"colibri/internal/router"
	"colibri/internal/topology"
)

func TestGrantStampAndInject(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	sess, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	if sess.ExpiresAt() <= net.Clock.NowSec() {
		t.Error("ExpiresAt in the past")
	}
	g := sess.Grant()
	if g.Res.ResID == 0 || len(g.Path) != 5 || len(g.HopAuths) != 5 {
		t.Fatalf("grant view: %+v", g)
	}
	// A correctly stamped packet is delivered.
	ok := g.Stamp([]byte("valid"), net.Clock.NowNs(), false)
	if err := net.InjectPacket(ok, ia(1, 11)); err != nil {
		t.Fatalf("valid stamp: %v", err)
	}
	if hd.Received != 1 {
		t.Fatalf("received %d", hd.Received)
	}
	// A forged one is not.
	net.Clock.Advance(1e6)
	bad := g.Stamp([]byte("forged"), net.Clock.NowNs(), true)
	err = net.InjectPacket(bad, ia(1, 11))
	if err == nil || !strings.Contains(err.Error(), "hop validation") {
		t.Errorf("forged stamp: %v", err)
	}
	if hd.Received != 1 {
		t.Errorf("forged packet delivered (received %d)", hd.Received)
	}
}

// TestForwardDropsUnknownEgress: a packet whose first hop field names an
// egress interface the source AS lacks, authenticated under that AS's
// secret so that its router forwards it, is dropped by the walk with "no
// interface" — for an ID inside the egress table (0, which no AS uses) and
// for the first ID past its end — and nothing is delivered.
func TestForwardDropsUnknownEgress(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	sess, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	src := net.Node(ia(1, 11))
	cbc := cryptoutil.MustCBCMAC(cryptoutil.Key(secretFor(src.IA)))
	for _, eg := range []topology.IfID{0, topology.IfID(len(src.next))} {
		g := sess.Grant()
		g.Path = append([]packet.HopField(nil), g.Path...)
		g.HopAuths = append([]cryptoutil.Key(nil), g.HopAuths...)
		g.Path[0].Eg = eg
		var in [packet.EERAuthLen]byte
		packet.EERAuthInput(&in, &g.Res, &g.EER, g.Path[0])
		cbc.SumInto((*[cryptoutil.MACSize]byte)(&g.HopAuths[0]), in[:])
		net.Clock.Advance(1e6)
		err := net.InjectPacket(g.Stamp([]byte("x"), net.Clock.NowNs(), false), src.IA)
		if !errors.Is(err, ErrDropped) || !strings.Contains(err.Error(), fmt.Sprintf("no interface %d", eg)) {
			t.Errorf("egress %d: %v, want ErrDropped with no interface %d", eg, err, eg)
		}
	}
	if hd.Received != 0 {
		t.Errorf("received %d packets over unknown egresses", hd.Received)
	}
}

// TestGrantViewOutlivesRenewal: a maintained session's grant lives in its
// keeper, and the keeper's renewal overwrites the σs in place. A view taken
// before the renewal still stamps packets that are delivered — the version it
// was taken of stays valid until it expires (§4.2) — and so does one taken
// after, of the new version.
func TestGrantViewOutlivesRenewal(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	sess, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Maintain(4); err != nil { // the keeper takes over the grant
		t.Fatal(err)
	}
	before := sess.Grant()
	net.Clock.Advance(13e9) // inside the lead window, before expiry
	if err := sess.Maintain(4); err != nil {
		t.Fatal(err)
	}
	net.Tick()
	after := sess.Grant()
	if after.Res.Ver != before.Res.Ver+1 || after.HopAuths[0] == before.HopAuths[0] {
		t.Fatalf("no renewal: version %d → %d", before.Res.Ver, after.Res.Ver)
	}
	for i, g := range []GrantView{before, after} {
		net.Clock.Advance(1e6)
		if err := net.InjectPacket(g.Stamp([]byte("x"), net.Clock.NowNs(), false), ia(1, 11)); err != nil {
			t.Fatalf("view %d (version %d): %v", i, g.Res.Ver, err)
		}
	}
	if hd.Received != 2 {
		t.Fatalf("received %d, want 2", hd.Received)
	}
}

// TestGrantViewAfterSweep: once the gateway no longer holds a session's EER —
// swept after expiry, or removed while still valid — the session's view
// carries len(Path) zero σs, never a short slice. What it stamps then is
// dropped on path, not delivered, and nothing panics.
func TestGrantViewAfterSweep(t *testing.T) {
	net, hs, hd := twoISDNet(t, Options{})
	expired, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	net.Clock.Advance(int64(expired.ExpiresAt()-net.Clock.NowSec()+1) * 1e9)
	net.Tick() // sweeps the expired EER out of the gateway
	removed, err := hs.RequestEER(hd, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	gw := net.Node(ia(1, 11)).Gateway
	gw.Remove(removed.resID)
	if gw.Len() != 0 {
		t.Fatalf("the gateway still holds %d EERs", gw.Len())
	}
	for _, c := range []struct {
		name string
		sess *Session
		want error
	}{{"expired", expired, router.ErrExpired}, {"removed", removed, router.ErrBadHVF}} {
		g := c.sess.Grant()
		if len(g.Path) != 5 || len(g.HopAuths) != len(g.Path) {
			t.Fatalf("%s: view of %d hops with %d σs", c.name, len(g.Path), len(g.HopAuths))
		}
		for h, a := range g.HopAuths {
			if a != (cryptoutil.Key{}) {
				t.Fatalf("%s: σ %d is %x, want zero", c.name, h, a)
			}
		}
		net.Clock.Advance(1e6)
		if err := net.InjectPacket(g.Stamp([]byte("x"), net.Clock.NowNs(), false), ia(1, 11)); !errors.Is(err, c.want) {
			t.Errorf("%s: stamped packet: %v, want %v", c.name, err, c.want)
		}
	}
	if hd.Received != 0 {
		t.Fatalf("received %d packets stamped without σs", hd.Received)
	}
}
