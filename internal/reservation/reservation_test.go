package reservation

import (
	"testing"

	"colibri/internal/topology"
)

func TestIDStringAndZero(t *testing.T) {
	var zero ID
	if !zero.IsZero() {
		t.Error("zero ID not zero")
	}
	id := ID{SrcAS: topology.MustIA(1, 2), Num: 7}
	if id.IsZero() || id.String() != "1-2#7" {
		t.Errorf("ID = %s", id)
	}
}
