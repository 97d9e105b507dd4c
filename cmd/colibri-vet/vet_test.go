package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
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

// TestFixtures runs the analyzer exactly as CI does (through run, covering
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
		{"determinism_policy", "determinism", "./policy/...", 1},
		{"nomalloc_restree", "nomalloc", "./restree/...", 1},
		{"locks", "locks", "./locks/...", 1},
		{"telemetry", "telemetry", "./tel/...", 1},
		{"errors", "errors", "./internal/...", 1},
		{"nomalloc_router", "nomalloc", "./router/...", 1},
		{"nomalloc_sharded", "nomalloc", "./sharded/...", 1},
		{"locks_sharded", "locks", "./sharded/...", 1},
		// Concurrency-invariant suite: each fixture seeds a raw legacy atomic
		// call, an owned-field alias escape, and an unjoined goroutine.
		{"atomics", "atomics", "./atomics/...", 1},
		{"shardown", "shardown", "./shardown/...", 1},
		{"goroutines", "goroutines", "./goroutines/...", 1},
		// A package with none of the requested check's subjects is clean.
		{"clean", "locks", "./cserv/...", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-C", fix, "-checks", tc.checks}
			if tc.name == "determinism_policy" {
				// No package of the repository is named policy, so the default
				// -deterministic list leaves the fixture's out.
				args = append(args, "-deterministic", "policy")
			}
			exit := run(append(args, tc.pattern), &stdout, &stderr)
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

// TestJSONReport checks the CI envelope: findings plus count and the
// suppressed tally (netsim's fixture carries one //colibri:allow line).
func TestJSONReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	exit := run([]string{"-C", fixtureDir(t), "-json", "-checks", "determinism", "./netsim/..."}, &stdout, &stderr)
	if exit != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", exit, stderr.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout.String())
	}
	if rep.Count != len(rep.Findings) || rep.Count != 3 {
		t.Errorf("count = %d, findings = %d, want 3", rep.Count, len(rep.Findings))
	}
	if rep.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (SuppressedNow's allow line)", rep.Suppressed)
	}
	for _, f := range rep.Findings {
		if f.Check != "determinism" {
			t.Errorf("unexpected check %q in %v", f.Check, f)
		}
	}
}

// TestBaseline covers the CI burn-down flow: a committed -json report is the
// accepted set, matching findings stop failing the gate, and a baseline that
// covers everything exits 0 while anything new still fails.
func TestBaseline(t *testing.T) {
	fix := fixtureDir(t)

	// First pass: capture the fixture's atomics findings as the baseline.
	var report, stderr bytes.Buffer
	if exit := run([]string{"-C", fix, "-json", "-checks", "atomics", "./atomics/..."}, &report, &stderr); exit != 1 {
		t.Fatalf("seed run exit = %d, want 1\nstderr:\n%s", exit, stderr.String())
	}
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, report.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Second pass under the baseline: everything matches, the gate passes.
	var stdout bytes.Buffer
	stderr.Reset()
	if exit := run([]string{"-C", fix, "-json", "-checks", "atomics", "-baseline", base, "./atomics/..."}, &stdout, &stderr); exit != 0 {
		t.Fatalf("baselined run exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", exit, stdout.String(), stderr.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout.String())
	}
	if rep.Count != 0 || rep.Baselined == 0 {
		t.Errorf("count = %d, baselined = %d; want 0 findings and a non-zero baselined tally", rep.Count, rep.Baselined)
	}

	// A baseline that does NOT cover a finding leaves the gate failing:
	// findings from a different check are new by definition.
	stdout.Reset()
	stderr.Reset()
	if exit := run([]string{"-C", fix, "-checks", "shardown", "-baseline", base, "./shardown/..."}, &stdout, &stderr); exit != 1 {
		t.Fatalf("uncovered run exit = %d, want 1\nstdout:\n%s", exit, stdout.String())
	}
}

// TestSelfClean is the gate's fixed point: the analyzer must exit 0 on the
// repository that ships it. (The nomalloc check is exercised separately by
// the fixtures; running it here would rebuild half the module per test run.)
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	exit := run([]string{"-C", root, "-checks", "determinism,locks,telemetry,errors,atomics,shardown,goroutines", "./..."}, &stdout, &stderr)
	if exit != 0 {
		t.Fatalf("colibri-vet is not clean on its own tree (exit %d):\n%s%s", exit, stdout.String(), stderr.String())
	}
}
