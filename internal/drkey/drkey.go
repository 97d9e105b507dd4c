// Package drkey implements the dynamically-recreatable-key (DRKey)
// infrastructure Colibri uses for line-rate control-plane authentication
// (§2.3 of the paper, and PISKES).
//
// Every AS A holds a per-epoch secret value SV_A from which it derives, with
// one PRF invocation and no state, the symmetric key shared with any other
// AS B:
//
//	K_{A→B} = PRF_{SV_A}(B)
//
// The arrow denotes asymmetry: A derives the key on the fly (faster than a
// memory lookup), while B must fetch it from A's key server over a channel
// protected by public-key cryptography (here: X25519 key agreement +
// AES-GCM, ed25519-signed responses) and cache it for the epoch.
package drkey

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"colibri/internal/cryptoutil"
	"colibri/internal/topology"
)

// DefaultEpochSeconds is the validity period of secret values and level-1
// keys: one day, per the paper ("the validity period of these keys is on the
// order of a day").
const DefaultEpochSeconds = 24 * 60 * 60

// Epoch is a key validity interval [Begin, End) in Unix seconds.
type Epoch struct {
	Begin, End uint32
}

// Contains reports whether t lies inside the epoch.
func (e Epoch) Contains(t uint32) bool { return t >= e.Begin && t < e.End }

func (e Epoch) String() string { return fmt.Sprintf("[%d,%d)", e.Begin, e.End) }

// Engine is one AS's DRKey derivation engine. It owns the AS master secret
// and derives epoch secret values and level-1/level-2 keys. The zero value
// is not usable; construct with NewEngine. Safe for concurrent use (the
// CServ derives keys from concurrent request handlers).
type Engine struct {
	ia        topology.IA
	master    cryptoutil.Key
	epochSecs uint32

	mu          sync.Mutex
	masterCMAC  *cryptoutil.CMAC
	currentSV   cryptoutil.Key
	currentCMAC *cryptoutil.CMAC
	currentEp   Epoch
}

// NewEngine creates a DRKey engine for the AS with the given master secret.
// epochSecs = 0 selects DefaultEpochSeconds.
func NewEngine(ia topology.IA, master cryptoutil.Key, epochSecs uint32) *Engine {
	if epochSecs == 0 {
		epochSecs = DefaultEpochSeconds
	}
	return &Engine{
		ia:         ia,
		master:     master,
		epochSecs:  epochSecs,
		masterCMAC: cryptoutil.MustCMAC(master),
	}
}

// RandomMaster returns a fresh random master secret.
func RandomMaster() cryptoutil.Key {
	var k cryptoutil.Key
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		panic(err) // crypto/rand failure is not recoverable
	}
	return k
}

// IA returns the engine's AS.
func (e *Engine) IA() topology.IA { return e.ia }

// EpochAt returns the epoch containing time t.
func (e *Engine) EpochAt(t uint32) Epoch {
	begin := t - t%e.epochSecs
	return Epoch{Begin: begin, End: begin + e.epochSecs}
}

func (e *Engine) secretValueLocked(t uint32) (*cryptoutil.CMAC, Epoch) {
	ep := e.EpochAt(t)
	if ep == e.currentEp && e.currentCMAC != nil {
		return e.currentCMAC, ep
	}
	var input [6]byte
	input[0], input[1] = 's', 'v'
	binary.BigEndian.PutUint32(input[2:], ep.Begin)
	sv := e.masterCMAC.DeriveKey(input[:])
	e.currentSV = sv
	e.currentEp = ep
	e.currentCMAC = cryptoutil.MustCMAC(sv)
	return e.currentCMAC, ep
}

// Level1 derives K_{A→B} for the epoch containing t: PRF_{SV_A}(B ‖ epoch).
// This is the fast-side derivation ("faster than a memory lookup").
func (e *Engine) Level1(dst topology.IA, t uint32) (cryptoutil.Key, Epoch) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cmac, ep := e.secretValueLocked(t)
	var input [12]byte
	binary.BigEndian.PutUint64(input[:8], uint64(dst))
	binary.BigEndian.PutUint32(input[8:], ep.Begin)
	return cmac.DeriveKey(input[:]), ep
}
