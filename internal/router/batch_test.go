package router

import (
	"bytes"
	"fmt"
	"testing"

	"colibri/internal/packet"
	"colibri/internal/replay"
)

// tamperBw rewrites buf in place with the reservation bandwidth doubled —
// an authenticated header field, so the HVFs no longer verify.
func tamperBw(t *testing.T, buf []byte) {
	t.Helper()
	var pkt packet.Packet
	if _, err := pkt.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	pkt.Res.BwKbps *= 2
	if _, err := pkt.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
}

// TestProcessBatchMatchesSequential: a batch — including invalid packets
// mixed between valid ones — must produce exactly the verdicts and buffer
// mutations of processing the same packets one by one.
func TestProcessBatchMatchesSequential(t *testing.T) {
	withReplay := func(i int, cfg *Config) { cfg.Replay = &replay.Config{} }
	nBatch := newTestnet(t, withReplay)
	nSeq := newTestnet(t, withReplay)

	mkSet := func(n *testnet) [][]byte {
		var bufs [][]byte
		for i := 0; i < 12; i++ {
			bufs = append(bufs, n.buildPacket(t, []byte{byte(i)}, baseNs+int64(i)))
		}
		tamperBw(t, bufs[3])                      // header tamper → bad HVF
		bufs[7] = []byte{0xDE, 0xAD}              // garbage
		bufs[9] = append([]byte(nil), bufs[2]...) // replay of packet 2
		return bufs
	}
	// Both testnets are built identically, so the packet sets are
	// byte-identical too.
	setB, setS := mkSet(nBatch), mkSet(nSeq)
	for i := range setB {
		if !bytes.Equal(setB[i], setS[i]) {
			t.Fatalf("fixture packet %d differs between testnets", i)
		}
	}

	wB := nBatch.routers[0].NewWorker()
	wS := nSeq.routers[0].NewWorker()
	verdicts := make([]BatchVerdict, len(setB))
	if got := wB.ProcessBatch(setB, verdicts, baseNs); got != 9 {
		t.Errorf("ProcessBatch passed %d, want 9", got)
	}
	for i := range setS {
		v, err := wS.Process(setS[i], baseNs)
		if verdicts[i].Action != v.Action {
			t.Errorf("pkt %d: batch action %v, sequential %v", i, verdicts[i].Action, v.Action)
		}
		if fmt.Sprint(verdicts[i].Err) != fmt.Sprint(err) {
			t.Errorf("pkt %d: batch err %v, sequential %v", i, verdicts[i].Err, err)
		}
		if !bytes.Equal(setB[i], setS[i]) {
			t.Errorf("pkt %d: batch mutated the buffer differently", i)
		}
	}
}

// TestProcessBatchVerdictSliceTooShort: the documented panic on a verdict
// slice shorter than the packet slice.
func TestProcessBatchVerdictSliceTooShort(t *testing.T) {
	n := newTestnet(t, nil)
	w := n.routers[0].NewWorker()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on short verdict slice")
		}
	}()
	w.ProcessBatch(make([][]byte, 4), make([]BatchVerdict, 3), baseNs)
}
