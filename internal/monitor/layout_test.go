package monitor

import (
	"testing"

	"colibri/internal/flattab"
)

// TestWatchRecordBytesPinned pins a watch-table entry's size in its flat
// table, key included, so that a field added to flow is a visible decision
// about a router's resident state per watched flow.
func TestWatchRecordBytesPinned(t *testing.T) {
	if got := (*flattab.Table[flow])(nil).RecordSize(); got != 48 {
		t.Errorf("the watch table's record is %d bytes, want 48", got)
	}
}
