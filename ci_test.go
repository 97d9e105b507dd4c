package colibri_test

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// gateFile holds the gate table, whose rules and samples name what the
// rules forbid; no gate scans it.
const gateFile = "ci_test.go"

// envelopeFile is the one cserv file that may verify, throttle, fetch and
// derive keys, draw nonces, seal and open, and compare-and-swap.
const envelopeFile = "internal/cserv/envelope.go"

// gate is a text rule of the tree: no line of a .go file in its scope
// matches re. Each names an identifier a change retired, so that it cannot
// come back, or confines one to a single file.
type gate struct {
	name string
	re   string
	// scope lists directories and files; "dir/..." takes every directory
	// below dir too, and "./..." the whole tree.
	scope []string
	// tests puts _test.go files in scope.
	tests bool
	// exempt is a file of the scope the rule does not reach.
	exempt string
	// sample is a line the rule must catch.
	sample string
}

var gates = []gate{{
	name:   "one control-plane store: no engine selector left in the handlers",
	re:     `\.cp (!=|==) nil|p\.c (!=|==) nil`,
	scope:  []string{"internal/cserv"},
	sample: "\tif s.cp != nil {",
}, {
	name:   "one σ path, no dead worker knob: no σ-schedule cache, no CPlaneWorkers",
	re:     `SchedCache|SigmaCache|sigmaCache|CacheStats|CPlaneWorkers`,
	scope:  []string{"./..."},
	tests:  true,
	sample: "\tCPlaneWorkers int",
}, {
	name: "one admission decision, one implementation: no admitter selector, shadow EER store, second hop leg, or SegR store or split beside the CPlane's registry",
	re: `RestreeState|NewAdmitter|AdmissionImpl|ImplMemoized|ImplNaive|ImplRestree|AdmitEERVersion|RemoveEERVersion|AllocatedEERKbps|eeBatchState|` +
		`reservation\.(New)?Store\b|admission\.(New)?TransferSplit|PairBooks|\.OnExpire\(`,
	scope:  []string{"./..."},
	tests:  true,
	sample: "\tstore := reservation.NewStore()",
}, {
	name:   "one authentication envelope: no per-handler signer or verifier",
	re:     `computeMacs|verifySourceMac|MustCMAC\(`,
	scope:  []string{"internal/cserv"},
	sample: "\tmac := cryptoutil.MustCMAC(key, msg)",
}, {
	name:   "one authentication envelope: MAC check, rate-limit token, key fetch and derivation, nonce draw, σ seal and open only in " + envelopeFile,
	re:     `takeToken\(|\.verify\(|hopKey\(|SealTo\(|OpenTo\(|RandomNonces\(|Level1\(`,
	scope:  []string{"internal/cserv"},
	exempt: envelopeFile,
	sample: "\tif !kc.takeToken(now, s.rateLimit) {",
}, {
	name: "every CAS of non-test internal/cserv lies in " + envelopeFile + ", and there are two: the loop that takes a rate token " +
		"from a source's rate word (keyCrypto.takeToken) and the single CAS that parks scratch in the idle slot (putWave)",
	re:     `CompareAndSwap\(`,
	scope:  []string{"internal/cserv"},
	exempt: envelopeFile,
	sample: "\t\tif k.tokens.CompareAndSwap(w, uint64(now)<<32|uint64(n+1)) {",
}, {
	name:   "one record table per shard: no Go map of the CServ's EER records, no map range over them",
	re:     `map\[reservation\.ID\]cpEER|range sh\.eers`,
	scope:  []string{"internal/cserv"},
	sample: "\tfor id, e := range sh.eers {",
}, {
	name:   "one record per reservation: no FlowMonitor and no Go map in the gateway",
	re:     `FlowMonitor|map\[`,
	scope:  []string{"internal/gateway"},
	sample: "\trecs map[uint64]*record",
}, {
	name:   "one netsim engine: no second engine, harness or rendezvous-channel annotation",
	re:     `RunParallel\(|RunBoth|EquivResult|parTelemetry|colibri:unbounded`,
	scope:  []string{"internal/...", "cmd/..."},
	sample: "\tres := sim.RunParallel(4)",
}, {
	name:   "no text on the control wire: a refusal is a Refusal code, not a reason string or a per-handler fail closure",
	re:     `\bReason\b|appendString|\.str\(\)|fail(At)? := func`,
	scope:  []string{"internal/cserv"},
	sample: "\tReason    string",
}, {
	name:   "one keep-alive engine: a fleet's waves, no solo keep-alive beside them",
	re:     `\.Keep\(|applyOutcome|EnsureFresh`,
	scope:  []string{"./..."},
	tests:  true,
	sample: "\treturn f.Keep(i, lead)",
}, {
	name:   "one SegR leg per hop: no record copy to detect a retry, no undo closure, no re-encoded forward",
	re:     `GetSegR\(|RenewSegRWithUndo|fwd := \*req`,
	scope:  []string{"internal/cserv/segr.go"},
	sample: "\tfwd := *req",
}, {
	name:   "no goroutine or channel of netsim's own",
	re:     `^[[:space:]]*go [[:alnum:]_(]|make\(chan`,
	scope:  []string{"internal/netsim"},
	sample: "\tgo s.drain(w)",
}}

// goFiles returns every .go file of the tree, slash-separated and relative
// to the module root, in walk order.
func goFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			files = append(files, filepath.ToSlash(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// inScope reports whether file f lies in the gate's scope.
func (g gate) inScope(f string) bool {
	if f == gateFile || f == g.exempt || !g.tests && strings.HasSuffix(f, "_test.go") {
		return false
	}
	dir := path.Dir(f)
	for _, s := range g.scope {
		if s == "./..." {
			return true
		}
		if below, ok := strings.CutSuffix(s, "/..."); ok {
			if dir == below || strings.HasPrefix(dir, below+"/") {
				return true
			}
		} else if dir == s || f == s {
			return true
		}
	}
	return false
}

// TestGates: no line of the tree breaks a gate. The table checks itself
// first: every sample matches its own rule, every scope holds files, and no
// rule exempts a file but envelopeFile.
func TestGates(t *testing.T) {
	files := goFiles(t)
	lines := map[string][][]byte{}
	for _, g := range gates {
		re, err := regexp.Compile(g.re)
		if err != nil {
			t.Errorf("gate %q: %v", g.name, err)
			continue
		}
		if !re.MatchString(g.sample) {
			t.Errorf("gate %q: its sample %q does not match its rule", g.name, g.sample)
		}
		if g.exempt != "" && (g.exempt != envelopeFile || !slices.Contains(files, g.exempt)) {
			t.Errorf("gate %q: exempts %s; only an existing %s may be", g.name, g.exempt, envelopeFile)
		}
		scanned := 0
		for _, f := range files {
			if !g.inScope(f) {
				continue
			}
			scanned++
			if lines[f] == nil {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				lines[f] = bytes.Split(src, []byte("\n"))
			}
			for i, l := range lines[f] {
				if re.Match(l) {
					t.Errorf("%s:%d: breaks gate %q:\n\t%s", f, i+1, g.name, l)
				}
			}
		}
		if scanned == 0 {
			t.Errorf("gate %q: its scope %v holds no file", g.name, g.scope)
		}
	}
}

// TestGofmt: every .go file gofmt sees — dot-files aside, testdata and
// bench/ included — is formatted.
func TestGofmt(t *testing.T) {
	for _, f := range goFiles(t) {
		if strings.HasPrefix(path.Base(f), ".") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", f, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-formatted", f)
		}
	}
}

// TestCIRunPatternsMatch: every alternative of every -run, -fuzz and -bench
// pattern in the CI workflow names at least one function of the tree — a
// Test, Fuzz or Benchmark function for -run and -fuzz, a Benchmark function
// for -bench, matched on a pattern's first /-separated level. A pattern
// that matches nothing makes its step pass without running anything, so a
// renamed or deleted test would silently drop out of CI. The conventional
// run-nothing pattern xxx, which a fuzz or bench step pairs with -run, is
// exempt. And no go test line selects tests with -run and is otherwise the
// Test step: without -race, -tags, -fuzz, -bench, -short, a -count of 2 or
// more or an environment variable, it only re-runs what Test ran.
func TestCIRunPatternsMatch(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	for _, f := range goFiles(t) {
		if !strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
	}
	flag := regexp.MustCompile(`\s-(run|fuzz|bench)[= ](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)
	names := 0
	for _, m := range flag.FindAllStringSubmatch(string(ci), -1) {
		level, _, _ := strings.Cut(m[2]+m[3]+m[4], "/")
		for _, name := range strings.Split(level, "|") {
			if name == "xxx" {
				continue
			}
			names++
			re, err := regexp.Compile(name)
			if err != nil {
				t.Errorf("ci.yml: pattern %q: %v", name, err)
				continue
			}
			if !slices.ContainsFunc(funcs, func(f string) bool {
				return re.MatchString(f) && (m[1] != "bench" || strings.HasPrefix(f, "Benchmark"))
			}) {
				t.Errorf("ci.yml: -%s %q matches no function it could run", m[1], name)
			}
		}
	}
	if names == 0 {
		t.Fatal("ci.yml names no test")
	}
	t.Logf("%d names over %d functions", names, len(funcs))

	step := ""
	stepName := regexp.MustCompile(`^\s*- name: (.*)$`)
	for _, line := range strings.Split(string(ci), "\n") {
		if m := stepName.FindStringSubmatch(line); m != nil {
			step = m[1]
		}
		cmd := strings.TrimPrefix(strings.TrimSpace(line), "run: ")
		if strings.Contains(cmd, "go test") && selectsOnlyByName(cmd) {
			t.Errorf("ci.yml: step %q only re-runs by name what the Test step runs: %s", step, cmd)
		}
	}
}

// envPrefix matches a command that sets an environment variable.
var envPrefix = regexp.MustCompile(`^[A-Z_][A-Z0-9_]*=`)

// selectsOnlyByName reports whether the go test command cmd has a -run and
// nothing that sets it apart from a plain go test ./....
func selectsOnlyByName(cmd string) bool {
	if envPrefix.MatchString(cmd) {
		return false
	}
	hasRun := false
	args := strings.Fields(cmd)
	for i, a := range args {
		if !strings.HasPrefix(a, "-") {
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
		switch name {
		case "run":
			hasRun = true
		case "race", "tags", "fuzz", "bench", "short":
			return false
		case "count":
			if !hasVal && i+1 < len(args) {
				val = args[i+1]
			}
			if n, err := strconv.Atoi(val); err == nil && n >= 2 {
				return false
			}
		}
	}
	return hasRun
}

// TestGoVet: go vet passes on the module, as it does on bench/ in
// TestBenchHarnessBuilds, for the host's architecture and for arm64, so
// that the module stays portable past its amd64 assembly.
func TestGoVet(t *testing.T) {
	for _, goarch := range []string{runtime.GOARCH, "arm64"} {
		cmd := exec.Command("go", "vet", "./...")
		cmd.Env = append(os.Environ(), "GOARCH="+goarch)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("GOARCH=%s go vet ./...: %v\n%s", goarch, err, out)
		}
	}
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
