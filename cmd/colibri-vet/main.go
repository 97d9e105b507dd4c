// Command colibri-vet is the project's invariant gate: a stdlib-only static
// analyzer enforcing the properties the paper's evaluation rests on —
// deterministic simulation/admission code, allocation-free batch hot paths,
// lock and telemetry discipline, and checked errors. It walks the module by
// directory (no go/packages dependency), type-checks each package with a
// hybrid importer (module-internal packages loaded from source siblings,
// the standard library through go/importer's source importer), and exits
// non-zero when any finding survives suppression.
//
// Usage:
//
//	go run ./cmd/colibri-vet ./...            # human-readable, exit 1 on findings
//	go run ./cmd/colibri-vet -json ./...      # CI gate: JSON report on stdout
//	go run ./cmd/colibri-vet -checks determinism,locks ./internal/cserv
//
// Annotation grammar (see DESIGN.md §5, §5a):
//
//	//colibri:allow(check[,check...])   suppress on this line (or next, if alone)
//	//colibri:ordered                   file opt-out of the map-iteration rule
//	//colibri:nomalloc                  function must not heap-allocate
//	//colibri:singlewriter              atomic field written by exactly one func
//	//colibri:shardowned                struct is shard-private state
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("colibri-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "emit a JSON report (for CI) instead of file:line text")
		checks   = fs.String("checks", "determinism,nomalloc,locks,telemetry,errors,atomics,shardown,goroutines", "comma-separated checks to run")
		detPkgs  = fs.String("deterministic", "netsim,cserv,admission,experiments,reservation,restree", "package names held to the determinism rules")
		chdir    = fs.String("C", "", "change to this directory before resolving patterns")
		typeErrs = fs.Bool("typecheck-strict", false, "fail on type-checking errors instead of analyzing best-effort")
		baseline = fs.String("baseline", "", "JSON report of accepted findings: matching findings are reported as baselined, only new ones fail")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "colibri-vet:", err)
		return 2
	}
	if *chdir != "" {
		cwd = *chdir
	}

	findings, nerr := Analyze(cwd, patterns, strings.Split(*checks, ","), strings.Split(*detPkgs, ","), *baseline, *jsonOut, *typeErrs, stdout, stderr)
	if nerr != 0 {
		return 2
	}
	if findings > 0 {
		return 1
	}
	return 0
}

// Analyze loads the packages matched by patterns under cwd's module, runs
// the selected checks and writes the report. It returns the finding count
// and a non-zero error count on infrastructure failures. When baselinePath
// names a committed JSON report, findings matching it are filtered to a
// baselined tally so CI fails only on new findings (annotated burn-down).
func Analyze(cwd string, patterns, checkNames, detPkgs []string, baselinePath string, jsonOut, strict bool, stdout, stderr io.Writer) (findings, errs int) {
	loader, err := NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "colibri-vet:", err)
		return 0, 1
	}

	var dirs []string
	seen := map[string]bool{}
	for _, p := range patterns {
		ds, err := loader.PackageDirs(cwd, p)
		if err != nil {
			fmt.Fprintln(stderr, "colibri-vet:", err)
			return 0, 1
		}
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	if len(dirs) == 0 {
		fmt.Fprintln(stderr, "colibri-vet: no packages match", strings.Join(patterns, " "))
		return 0, 1
	}

	var pkgs []*Pkg
	for _, d := range dirs {
		p, err := loader.Load(d)
		if err != nil {
			fmt.Fprintf(stderr, "colibri-vet: loading %s: %v\n", d, err)
			return 0, 1
		}
		if len(p.TypeErrs) > 0 && strict {
			for _, te := range p.TypeErrs {
				fmt.Fprintln(stderr, "colibri-vet: typecheck:", te)
			}
			return 0, 1
		}
		pkgs = append(pkgs, p)
	}

	// Suppressions must be indexed before any check reports.
	sup := NewSuppressionIndex()
	for _, p := range pkgs {
		for _, f := range p.Files {
			sup.AddFile(loader.Fset, f)
		}
	}
	rep := NewReporter(loader.ModRoot, loader.Fset, sup)

	enabled := map[string]bool{}
	for _, c := range checkNames {
		enabled[strings.TrimSpace(c)] = true
	}
	det := map[string]bool{}
	for _, p := range detPkgs {
		det[strings.TrimSpace(p)] = true
	}

	detCheck := &determinismCheck{pkgs: det}
	nmCheck := &nomallocCheck{}
	lkCheck := &locksCheck{}
	telCheck := &telemetryCheck{}
	errCheck := &errcheckCheck{}
	atCheck := &atomicsCheck{}
	soCheck := &shardownCheck{}
	grCheck := &goroutinesCheck{}
	for _, p := range pkgs {
		if enabled[checkDeterminism] {
			detCheck.Run(p, rep)
		}
		if enabled[checkNomalloc] {
			nmCheck.Run(p, rep)
		}
		if enabled[checkLocks] {
			lkCheck.Run(p, rep)
		}
		if enabled[checkTelemetry] {
			telCheck.Run(p, rep)
		}
		if enabled[checkErrors] {
			errCheck.Run(p, rep)
		}
		if enabled[checkAtomics] {
			atCheck.Run(p, rep)
		}
		if enabled[checkShardown] {
			soCheck.Run(p, rep)
		}
		if enabled[checkGoroutines] {
			grCheck.Run(p, rep)
		}
	}
	if enabled[checkTelemetry] {
		telCheck.Finish(rep)
	}
	if enabled[checkAtomics] {
		atCheck.Finish(rep)
	}
	if enabled[checkShardown] {
		soCheck.Finish(rep)
	}

	if baselinePath != "" {
		base, err := loadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "colibri-vet: baseline:", err)
			return 0, 1
		}
		n := rep.ApplyBaseline(base)
		if n > 0 {
			fmt.Fprintf(stderr, "colibri-vet: %d finding(s) matched the committed baseline\n", n)
		}
	}

	if jsonOut {
		if err := rep.WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "colibri-vet:", err)
			return 0, 1
		}
	} else {
		rep.WriteText(stdout)
	}
	return len(rep.Findings()), 0
}

// loadBaseline reads a committed colibri-vet -json report. Its findings are
// the accepted burn-down set: they don't fail the gate, new ones do.
func loadBaseline(path string) ([]Finding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep.Findings, nil
}
