package hooks

import "testing"

func TestHooks(t *testing.T) {
	if OnlyTests()+Hook() != 4 {
		t.Fatal("hooks")
	}
}
