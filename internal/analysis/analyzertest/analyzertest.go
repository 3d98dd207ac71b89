// Package analyzertest runs a geodabs-vet analyzer over a fixture
// module and checks its diagnostics against `// want` comments, in the
// style of golang.org/x/tools/go/analysis/analysistest.
//
// A fixture lives under the calling test's testdata directory as a
// small self-contained module (its own go.mod, module name "fixtures"),
// which the go tool happily builds because testdata trees are invisible
// to package patterns of the enclosing module. A fixture that must stand
// in for a geodabs package the analyzer names by import path — lockhold's
// framed connection, wire.Conn — names its module "geodabs" instead.
// Expectations are written on the offending line:
//
//	mu.Lock()
//	conn.Write(b) // want `may block`
//
// Each expectation is a regexp (backquoted or double-quoted) that must
// match the message of a diagnostic reported on that line; diagnostics
// with no matching expectation, and expectations with no matching
// diagnostic, fail the test.
package analyzertest

import (
	"go/token"
	"regexp"
	"testing"

	"geodabs/internal/analysis"
	"geodabs/internal/analysis/load"
)

var wantRE = regexp.MustCompile("//\\s*want\\s+((?:(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")\\s*)+)$")
var wantArgRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the fixture module rooted at dir, applies the analyzer to
// every loaded package, and compares diagnostics against the fixture's
// want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	RunDiagnostics(t, dir, patterns, func(pkgs []*load.Package, fset *token.FileSet) []analysis.Diagnostic {
		var diags []analysis.Diagnostic
		for _, pkg := range pkgs {
			pass := analysis.NewPass(a, fset, pkg.Files, pkg.Types, pkg.Info, pkg.Suppress)
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkg.ImportPath, err)
			}
			diags = append(diags, pass.Diagnostics()...)
		}
		return diags
	})
}

// RunDiagnostics loads the fixture module rooted at dir, asks produce
// for diagnostics, and compares them against the fixture's want
// comments. It is the hook for checks (noalloc) that do not run as a
// plain per-package Pass.
func RunDiagnostics(t *testing.T, dir string, patterns []string, produce func([]*load.Package, *token.FileSet) []analysis.Diagnostic) {
	t.Helper()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, fset, err := load.Dir(dir, patterns...)
	if err != nil {
		t.Fatalf("loading fixtures from %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages loaded from %s %v", dir, patterns)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture type error in %s: %v", pkg.ImportPath, terr)
		}
	}

	diags := produce(pkgs, fset)
	expects := collectWants(t, fset, pkgs)

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, e := range expects {
			if !e.hit && e.file == pos.Filename && e.line == pos.Line && e.re.MatchString(d.Message) {
				e.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s: %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, e := range expects {
		if !e.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
}

// collectWants scans fixture comments for want expectations.
func collectWants(t *testing.T, fset *token.FileSet, pkgs []*load.Package) []*expectation {
	t.Helper()
	var expects []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, arg := range wantArgRE.FindAllString(m[1], -1) {
						pattern := arg[1 : len(arg)-1]
						re, err := regexp.Compile(pattern)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, arg, err)
						}
						expects = append(expects, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return expects
}
