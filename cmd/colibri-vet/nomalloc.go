// nomalloc.go — check "nomalloc": functions annotated //colibri:nomalloc
// (the batch pipeline and crypto kernels whose per-packet cost the paper's
// Figs. 5–6 measure) must not heap-allocate. The check drives the real
// compiler — `go build -gcflags=-m` on each package containing annotated
// functions — and attributes every "escapes to heap" / "moved to heap"
// diagnostic to the annotated function whose line range contains it. This
// is ground truth, not a syntactic guess: whatever the escape analysis of
// the toolchain that ships the binary decides is what the check enforces.
//
// Amortized growth paths (a make() that reuses capacity in steady state)
// are the intended use of a per-line //colibri:allow(nomalloc).
package main

import (
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

const checkNomalloc = "nomalloc"

type nomallocCheck struct {
	// goTool is the go command to invoke; tests may stub it. Empty means
	// "go" from PATH.
	goTool string
}

// escapeRe matches compiler diagnostics like
//
//	internal/router/router.go:123:45: make([]byte, n) escapes to heap
//	internal/gateway/gateway.go:10:2: moved to heap: x
var escapeRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*(?:escapes to heap|moved to heap).*)$`)

// funcRange is an annotated function's file span.
type funcRange struct {
	file      string // absolute path
	name      string
	startLine int
	endLine   int
	pos       map[int]bool // lines already reported, to dedupe multi-notes
}

func (c *nomallocCheck) Run(p *Pkg, r *Reporter) {
	var ranges []*funcRange
	for _, f := range p.Files {
		for _, fd := range nomallocFuncs(f) {
			start := r.fset.Position(fd.Pos())
			end := r.fset.Position(fd.End())
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				name = recvTypeName(fd.Recv.List[0].Type) + "." + name
			}
			ranges = append(ranges, &funcRange{
				file:      start.Filename,
				name:      name,
				startLine: start.Line,
				endLine:   end.Line,
				pos:       map[int]bool{},
			})
		}
	}
	if len(ranges) == 0 {
		return
	}
	out, err := c.escapeOutput(r.modRoot, p.ImportPath)
	if err != nil {
		r.Report(p.Files[0].Pos(), checkNomalloc,
			"cannot run escape analysis for %s: %v", p.ImportPath, err)
		return
	}
	for _, line := range strings.Split(out, "\n") {
		m := escapeRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(r.modRoot, filepath.FromSlash(file))
		}
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		msg := m[4]
		for _, fr := range ranges {
			if fr.file != file || lineNo < fr.startLine || lineNo > fr.endLine || fr.pos[lineNo] {
				continue
			}
			fr.pos[lineNo] = true
			r.reportAt(file, lineNo, col, checkNomalloc,
				"heap allocation in //colibri:nomalloc %s: %s", fr.name, msg)
		}
	}
}

// escapeOutput rebuilds the package with -gcflags=-m and returns the
// compiler's escape-analysis notes. -gcflags applies only to the packages
// named on the command line, which also forces them to rebuild (cached
// builds print nothing). The build writes nothing: a main package would
// otherwise leave its binary in modRoot.
func (c *nomallocCheck) escapeOutput(modRoot, importPath string) (string, error) {
	tool := c.goTool
	if tool == "" {
		tool = "go"
	}
	cmd := exec.Command(tool, "build", "-o", os.DevNull, "-gcflags=-m", importPath)
	cmd.Dir = modRoot
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("%v: %s", err, firstLine(string(out)))
	}
	return string(out), nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	}
	return "?"
}
