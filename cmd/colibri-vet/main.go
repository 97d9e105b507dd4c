// Command colibri-vet is the project's invariant gate: a stdlib-only static
// analyzer enforcing the properties the paper's evaluation rests on —
// deterministic simulation/admission code, allocation-free batch hot paths,
// lock and telemetry discipline, checked errors, and no internal code that
// only tests reach. It walks the module by directory (no go/packages
// dependency), type-checks each package with a hybrid importer
// (module-internal packages loaded from source siblings, the standard
// library through go/importer's source importer), fails on any type error,
// and exits non-zero when any finding survives suppression.
//
// Usage:
//
//	go run ./cmd/colibri-vet ./...            # file:line report, exit 1 on findings
//	go run ./cmd/colibri-vet -checks determinism,locks ./internal/cserv
//
// Annotation grammar (see DESIGN.md §5, §5a); a directive is a comment that
// begins with it:
//
//	//colibri:allow(check[,check...])   suppress on this line (or next, if alone)
//	//colibri:ordered                   file opt-out of the map-iteration rule
//	//colibri:nomalloc                  function must not heap-allocate
//	//colibri:shardowned                struct is shard-private state
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// defaultChecks is every check, the -checks default.
const defaultChecks = "determinism,nomalloc,locks,telemetry,errors,shardown,goroutines,testonly"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("colibri-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", defaultChecks, "comma-separated checks to run")
	chdir := fs.String("C", "", "change to this directory before resolving patterns")
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

	findings, nerr := Analyze(cwd, patterns, strings.Split(*checks, ","), stdout, stderr)
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
// and a non-zero error count on infrastructure failures, a type error in
// any loaded package included.
func Analyze(cwd string, patterns, checkNames []string, stdout, stderr io.Writer) (findings, errs int) {
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
		if len(p.TypeErrs) > 0 {
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
	detCheck := &determinismCheck{}
	nmCheck := &nomallocCheck{}
	lkCheck := &locksCheck{}
	telCheck := &telemetryCheck{}
	errCheck := &errcheckCheck{}
	soCheck := &shardownCheck{}
	grCheck := &goroutinesCheck{}
	toCheck := &testonlyCheck{}
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
		if enabled[checkShardown] {
			soCheck.Run(p, rep)
		}
		if enabled[checkGoroutines] {
			grCheck.Run(p, rep)
		}
		if enabled[checkTestonly] {
			toCheck.Run(p, rep)
		}
	}
	if enabled[checkTelemetry] {
		telCheck.Finish(rep)
	}
	if enabled[checkShardown] {
		soCheck.Finish(rep)
	}
	if enabled[checkTestonly] {
		if err := toCheck.Finish(loader, rep); err != nil {
			fmt.Fprintln(stderr, "colibri-vet: testonly:", err)
			return 0, 1
		}
	}

	rep.WriteText(stdout)
	return len(rep.Findings()), 0
}
