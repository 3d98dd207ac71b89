// Package analysis is a self-contained mini framework for the
// project-specific vet suite run by cmd/geodabs-vet.
//
// It mirrors the shape of golang.org/x/tools/go/analysis — an Analyzer
// holds a Run function that inspects one type-checked package through a
// Pass and reports Diagnostics — but is built only on the standard
// library so the suite works in hermetic builds with no module
// downloads. Packages are loaded by internal/analysis/load and analyzer
// unit tests run fixture modules through internal/analysis/analyzertest.
//
// Two comment directives drive the suite:
//
//	//geodabs:vet-ignore <reason>
//	    Suppresses diagnostics on the same line, on the line directly
//	    below a standalone directive comment, or (when placed in a
//	    function's doc comment) anywhere inside that function. The
//	    reason is mandatory; a bare directive is itself reported.
//
//	//geodabs:noalloc
//	    Marks a function whose body must not heap-allocate. Checked by
//	    the noalloc analyzer against the compiler's escape analysis.
//
// The enforced invariants are catalogued in docs/invariants.md.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one vet check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, e.g. "lockhold".
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects the package held by pass and reports findings via
	// pass.Reportf. It returns an error only for analyzer malfunction,
	// not for findings.
	Run func(pass *Pass) error
}

// A Pass presents one type-checked package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	suppress    *Suppressions
	diagnostics []Diagnostic
}

// A Diagnostic is one finding, tied to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// NewPass assembles a pass over a loaded package. The suppression index
// may be nil, in which case nothing is suppressed.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, sup *Suppressions) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, suppress: sup}
}

// Reportf records a diagnostic at pos unless a vet-ignore directive
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.suppress != nil && p.suppress.Covers(p.Fset, pos) {
		return
	}
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far, in source order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diagnostics, func(i, j int) bool {
		return p.diagnostics[i].Pos < p.diagnostics[j].Pos
	})
	return p.diagnostics
}

// IgnoreDirective is the comment prefix that suppresses a finding.
const IgnoreDirective = "//geodabs:vet-ignore"

// NoallocDirective marks a function checked by the noalloc analyzer.
const NoallocDirective = "//geodabs:noalloc"

var ignoreRE = regexp.MustCompile(`^//geodabs:vet-ignore(?:\s+(.*))?$`)

// Suppressions indexes every vet-ignore directive in a package.
type Suppressions struct {
	// lines maps filename to the set of line numbers covered by a
	// same-line or line-above directive.
	lines map[string]map[int]bool
	// spans holds [start, end] line ranges covered by a directive in a
	// function's doc comment.
	spans map[string][][2]int
	// Bare lists directives missing the mandatory reason; the driver
	// reports these as errors.
	Bare []token.Pos
}

// CollectSuppressions scans the files of one package for vet-ignore
// directives.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{
		lines: make(map[string]map[int]bool),
		spans: make(map[string][][2]int),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				if strings.TrimSpace(m[1]) == "" {
					s.Bare = append(s.Bare, c.Pos())
					continue
				}
				pos := fset.Position(c.Pos())
				ln := s.lines[pos.Filename]
				if ln == nil {
					ln = make(map[int]bool)
					s.lines[pos.Filename] = ln
				}
				// Cover the directive's own line (trailing comment) and
				// the next line (standalone comment above a statement).
				ln[pos.Line] = true
				ln[pos.Line+1] = true
			}
		}
		// A directive inside a function's doc comment covers the whole
		// function body.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil || strings.TrimSpace(m[1]) == "" {
					continue
				}
				start := fset.Position(fd.Pos())
				end := fset.Position(fd.End())
				s.spans[start.Filename] = append(s.spans[start.Filename], [2]int{start.Line, end.Line})
			}
		}
	}
	return s
}

// Covers reports whether a directive suppresses diagnostics at pos.
func (s *Suppressions) Covers(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	return s.CoversLine(p.Filename, p.Line)
}

// CoversLine reports whether a directive suppresses diagnostics on the
// given file line. Used by checks (noalloc) whose findings come from
// compiler output rather than token positions.
func (s *Suppressions) CoversLine(filename string, line int) bool {
	if s.lines[filename][line] {
		return true
	}
	for _, span := range s.spans[filename] {
		if line >= span[0] && line <= span[1] {
			return true
		}
	}
	return false
}

// HasNoallocDirective reports whether a function declaration's doc
// comment carries the //geodabs:noalloc directive.
func HasNoallocDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == NoallocDirective || strings.HasPrefix(text, NoallocDirective+" ") {
			return true
		}
	}
	return false
}

// CalleeFullName resolves the fully qualified name of a call's static
// callee, in the form produced by (*types.Func).FullName — e.g.
// "(*sync.Mutex).Lock", "net.Dial", or
// "(geodabs/internal/wal.segmentFile).Sync" for interface methods. A
// method of a generic type is named by its declaration, whatever the
// instantiation: "(*geodabs/internal/wire.Pool[S]).Call". It returns ""
// for dynamic calls (function values), conversions, and builtins.
func CalleeFullName(info *types.Info, call *ast.CallExpr) string {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	return fn.Origin().FullName()
}
