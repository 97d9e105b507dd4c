package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureDir returns the absolute path of the fixture module, a standalone
// module (its own go.mod) holding one package per check with positive,
// negative and suppressed cases.
func fixtureDir(t testing.TB) string {
	t.Helper()
	d, err := filepath.Abs(filepath.Join("testdata", "src", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFixtures runs the analyzer as the command line does (through run, covering
// flag plumbing and exit codes) against the fixture module, one check per
// case, and compares the text report with a golden file. Each positive case
// reintroduces one seeded bug class from the acceptance checklist — time.Now
// in netsim, an unsorted map range in cserv, an alloc in router.ProcessBatch
// — and must exit non-zero.
func TestFixtures(t *testing.T) {
	fix := fixtureDir(t)
	cases := []struct {
		name     string
		checks   string
		pattern  string
		wantExit int
	}{
		{"determinism_netsim", "determinism", "./netsim/...", 1},
		{"determinism_parallel", "determinism", "./netsimpar/...", 1},
		{"determinism_cserv", "determinism", "./cserv/...", 1},
		{"determinism_restree", "determinism", "./restree/...", 1},
		// The float rule: float counters, comparisons, conversions and a
		// math call in a data-plane package fail; integer maths, constants
		// and allowed configuration-time maths do not.
		{"determinism_float", "determinism", "./ofd/...", 1},
		{"determinism_float_clean", "determinism", "./gateway/...", 0},
		{"nomalloc_restree", "nomalloc", "./restree/...", 1},
		{"locks", "locks", "./locks/...", 1},
		{"telemetry", "telemetry", "./tel/...", 1},
		{"errors", "errors", "./internal/...", 1},
		{"nomalloc_router", "nomalloc", "./router/...", 1},
		{"nomalloc_sharded", "nomalloc", "./sharded/...", 1},
		{"locks_sharded", "locks", "./sharded/...", 1},
		// Concurrency-invariant suite: each fixture seeds an owned-field alias
		// escape and an unjoined goroutine.
		{"shardown", "shardown", "./shardown/...", 1},
		{"goroutines", "goroutines", "./goroutines/...", 1},
		// A function only a _test.go file references; the nested caller
		// module's uses, an interface method, a generic instantiation and an
		// allow-annotated hook stay clean.
		{"testonly", "testonly", "./internal/hooks/...", 1},
		// A package with none of the requested check's subjects is clean.
		{"clean", "locks", "./cserv/...", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			exit := run([]string{"-C", fix, "-checks", tc.checks, tc.pattern}, &stdout, &stderr)
			if stderr.Len() > 0 {
				t.Logf("stderr:\n%s", stderr.String())
			}
			if exit != tc.wantExit {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s", exit, tc.wantExit, stdout.String())
			}
			golden := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (rerun with -update): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("report differs from %s:\n got:\n%s\nwant:\n%s", golden, stdout.String(), want)
			}
		})
	}
}

// TestSelfClean is the gate's fixed point: the analyzer must exit 0 on the
// repository that ships it, under every default check. (The nomalloc check
// is exercised separately by the fixtures; running it here would rebuild half
// the module per test run.)
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	checks := slices.DeleteFunc(strings.Split(defaultChecks, ","), func(c string) bool { return c == checkNomalloc })
	var stdout, stderr bytes.Buffer
	exit := run([]string{"-C", root, "-checks", strings.Join(checks, ","), "./..."}, &stdout, &stderr)
	if exit != 0 {
		t.Fatalf("colibri-vet is not clean on its own tree (exit %d):\n%s%s", exit, stdout.String(), stderr.String())
	}
}
