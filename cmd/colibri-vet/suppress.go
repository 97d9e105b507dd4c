// suppress.go implements the annotation grammar shared by all checks. A
// directive is a comment that begins with it; a comment that mentions one in
// prose is not a directive.
//
//	//colibri:allow(check[,check...])  — suppress findings of the named
//	    checks on this line; when the comment stands alone on its line, it
//	    suppresses the line below instead (for lines too long to annotate).
//	//colibri:ordered                  — file-level opt-out of the
//	    map-iteration determinism rule (the file's author asserts every map
//	    range in it is order-insensitive or intentionally unordered).
//	//colibri:nomalloc                 — function annotation: the function
//	    body must not heap-allocate (verified against escape analysis).
//	//colibri:shardowned               — struct-type annotation (shardown
//	    check): fields are shard-private and may only be touched by the
//	    owning/holder type's methods, reconciliation points and
//	    constructors, and must not alias out.
package main

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

var allowRe = regexp.MustCompile(`^//colibri:allow\(([a-z, -]+)\)`)

// SuppressionIndex records, per file, the lines carrying allow-pragmas and
// the files opting out of ordering.
type SuppressionIndex struct {
	// allow maps filename -> line -> set of suppressed check names.
	allow map[string]map[int]map[string]bool
	// ordered holds filenames with a //colibri:ordered pragma.
	ordered map[string]bool
}

func NewSuppressionIndex() *SuppressionIndex {
	return &SuppressionIndex{
		allow:   map[string]map[int]map[string]bool{},
		ordered: map[string]bool{},
	}
}

// AddFile scans one parsed file's comments into the index.
func (s *SuppressionIndex) AddFile(fset *token.FileSet, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			pos := fset.Position(c.Pos())
			text := c.Text
			if isDirective(text, "//colibri:ordered") {
				s.ordered[pos.Filename] = true
			}
			var names []string
			if m := allowRe.FindStringSubmatch(text); m != nil {
				for _, name := range strings.Split(m[1], ",") {
					names = append(names, strings.TrimSpace(name))
				}
			}
			if len(names) == 0 {
				continue
			}
			line := pos.Line
			// A comment alone on its line guards the following line.
			if pos.Column == 1 || standsAlone(fset, f, c) {
				line++
			}
			fm := s.allow[pos.Filename]
			if fm == nil {
				fm = map[int]map[string]bool{}
				s.allow[pos.Filename] = fm
			}
			cm := fm[line]
			if cm == nil {
				cm = map[string]bool{}
				fm[line] = cm
			}
			for _, name := range names {
				cm[name] = true
			}
		}
	}
}

// standsAlone reports whether comment c is the only token on its line, by
// checking that no declaration or statement of the file starts on that line.
// (Column-1 comments are handled before calling this; here we catch indented
// stand-alone comments.)
func standsAlone(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		// Any non-comment node starting or ending on the comment's line
		// means the comment trails code.
		switch n.(type) {
		case *ast.Comment, *ast.CommentGroup, *ast.File:
			return true
		}
		s, e := fset.Position(n.Pos()), fset.Position(n.End())
		if s.Line <= line && line <= e.Line {
			// The node spans the line; only leaf nodes on exactly this line
			// prove code shares it.
			if s.Line == line || e.Line == line {
				alone = false
				return false
			}
		}
		return true
	})
	return alone
}

// Allowed reports whether check findings on file:line are suppressed.
func (s *SuppressionIndex) Allowed(file string, line int, check string) bool {
	if fm, ok := s.allow[file]; ok {
		if cm, ok := fm[line]; ok {
			return cm[check] || cm["all"]
		}
	}
	return false
}

// Ordered reports whether the file opted out of map-iteration ordering.
func (s *SuppressionIndex) Ordered(file string) bool { return s.ordered[file] }

// isDirective reports whether comment text is directive d: the comment
// begins with d, alone or followed by a space.
func isDirective(text, d string) bool {
	rest, ok := strings.CutPrefix(text, d)
	return ok && (rest == "" || rest[0] == ' ')
}

// hasDirective reports whether any comment of cg is directive d.
func hasDirective(cg *ast.CommentGroup, d string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if isDirective(c.Text, d) {
			return true
		}
	}
	return false
}

// nomallocFuncs returns the functions in f whose doc comment holds the
// //colibri:nomalloc directive.
func nomallocFuncs(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && hasDirective(fd.Doc, "//colibri:nomalloc") {
			out = append(out, fd)
		}
	}
	return out
}
