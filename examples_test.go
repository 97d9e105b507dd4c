package colibri_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestExamplesRun builds every program under examples/ and runs it: each
// exits 0 and prints a line that begins with "✓", its own statement of what
// it showed. The examples drive the library's public surface end to end —
// reservations set up and renewed through every on-path CServ, traffic sent —
// so a change that breaks that surface fails here, not in a reader's hands.
func TestExamplesRun(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples: %v", err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, main := range dirs {
		name := filepath.Base(filepath.Dir(main))
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			out, err := exec.Command(filepath.Join(bin, name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			t.Logf("ran in %v", time.Since(start).Round(time.Millisecond))
			for _, line := range strings.Split(string(out), "\n") {
				if strings.HasPrefix(strings.TrimSpace(line), "✓") {
					return
				}
			}
			t.Errorf("no ✓ line in its output:\n%s", out)
		})
	}
}
