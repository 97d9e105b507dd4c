package colibri_test

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatch: every alternative of every -run and -fuzz pattern
// in the CI workflow names at least one Test, Fuzz or Benchmark function of
// the tree. A pattern that matches nothing makes its step pass without
// running anything, so a renamed or deleted test would silently drop out of
// CI. The conventional run-nothing pattern xxx, which a fuzz or bench step
// pairs with -run, is exempt.
func TestCIRunPatternsMatch(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`-(?:run|fuzz)[= ](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)
	names := 0
	for _, m := range flag.FindAllStringSubmatch(string(ci), -1) {
		for _, name := range strings.Split(m[1]+m[2]+m[3], "|") {
			if name == "xxx" {
				continue
			}
			names++
			re, err := regexp.Compile(name)
			if err != nil {
				t.Errorf("ci.yml: pattern %q: %v", name, err)
				continue
			}
			matched := false
			for _, f := range funcs {
				if matched = re.MatchString(f); matched {
					break
				}
			}
			if !matched {
				t.Errorf("ci.yml: %q matches no Test, Fuzz or Benchmark function", name)
			}
		}
	}
	if names == 0 {
		t.Fatal("ci.yml names no test")
	}
	t.Logf("%d names over %d functions", names, len(funcs))
}

// TestBenchHarnessBuilds: the end-to-end benchmark harness, a module of its
// own under bench/ built over this one, vets clean and passes its self-test —
// the 1 % smoke of every workload, with the over-admission audit it reads
// through Service.Store() — against the tree as it stands. Nothing else in
// go test ./... compiles bench/, so a change to an API it uses would go
// unnoticed until the benchmark runs.
func TestBenchHarnessBuilds(t *testing.T) {
	for _, args := range [][]string{{"vet", "."}, {"test", "-count=1", "."}} {
		cmd := exec.Command("go", append([]string{"-C", "bench"}, args...)...)
		cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go -C bench %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
