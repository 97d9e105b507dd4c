package gateway

import (
	"testing"

	"colibri/internal/flattab"
)

// TestRecordBytesPinned pins the gateway's per-EER record at 64 bytes, one
// cache line, in its flat table, key and padding included, so that a field
// added to record is a visible decision about the gateway's resident state
// per EER.
func TestRecordBytesPinned(t *testing.T) {
	if got := (*flattab.Table[record])(nil).RecordSize(); got != 64 {
		t.Errorf("the gateway's table record is %d bytes, want 64", got)
	}
}
