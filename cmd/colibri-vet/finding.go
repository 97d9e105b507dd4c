package main

import (
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"sort"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	File    string // module-root-relative path
	Line    int
	Col     int
	Check   string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Reporter collects findings, applies per-line suppressions, and renders
// the text report.
type Reporter struct {
	modRoot  string
	fset     *token.FileSet
	suppress *SuppressionIndex
	findings []Finding
}

func NewReporter(modRoot string, fset *token.FileSet, sup *SuppressionIndex) *Reporter {
	return &Reporter{modRoot: modRoot, fset: fset, suppress: sup}
}

// Report files a finding at pos unless the line carries a matching
// //colibri:allow(check) suppression.
func (r *Reporter) Report(pos token.Pos, check, format string, args ...any) {
	p := r.fset.Position(pos)
	r.reportAt(p.Filename, p.Line, p.Column, check, format, args...)
}

// reportAt files a finding at an explicit file:line:col (used by checks
// whose evidence comes from compiler output rather than AST positions),
// honoring the same per-line suppressions.
func (r *Reporter) reportAt(file string, line, col int, check, format string, args ...any) {
	if r.suppress.Allowed(file, line, check) {
		return
	}
	rel, err := filepath.Rel(r.modRoot, file)
	if err != nil {
		rel = file
	}
	r.findings = append(r.findings, Finding{
		File:    filepath.ToSlash(rel),
		Line:    line,
		Col:     col,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}

// PosString renders a position module-root-relative, the form findings
// embed when a message references a second location (lock acquisition
// sites, first registrations) — keeps output machine-stable across
// checkouts and golden-testable.
func (r *Reporter) PosString(pos token.Pos) string {
	p := r.fset.Position(pos)
	rel, err := filepath.Rel(r.modRoot, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d:%d", filepath.ToSlash(rel), p.Line, p.Column)
}

// Findings returns the collected findings sorted by file, line, column,
// check — a stable order so output is diffable and golden-testable.
func (r *Reporter) Findings() []Finding {
	sort.Slice(r.findings, func(i, j int) bool {
		a, b := r.findings[i], r.findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return r.findings
}

// WriteText prints one finding per line in file:line:col: [check] message form.
func (r *Reporter) WriteText(w io.Writer) {
	for _, f := range r.Findings() {
		fmt.Fprintln(w, f.String())
	}
}
