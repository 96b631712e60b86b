// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against // want comments, mirroring (a subset of)
// golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <analyzer pkg>/testdata/src/<name>/*.go. A line that
// should be flagged carries a trailing comment
//
//	x[i] = v // want "regexp"
//
// with one quoted Go regexp per expected diagnostic on that line. Every
// expectation must be matched by a diagnostic and every diagnostic must be
// matched by an expectation, after //lint:ignore suppression is applied —
// so fixtures can (and do) prove that suppression works.
package analysistest

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/loader"
)

// Fixture packages import at most the standard library, so one process-wide
// export resolver (rooted anywhere inside the module) serves every test.
var (
	exportsOnce sync.Once
	exports     *loader.Exports
)

func sharedExports(t *testing.T) *loader.Exports {
	t.Helper()
	exportsOnce.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			wd = "."
		}
		exports = loader.NewExports(wd)
	})
	return exports
}

var wantRE = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run analyzes the fixture package testdata/src/<pkg> and reports any
// mismatch between diagnostics and // want expectations as test failures.
func Run(t *testing.T, a *framework.Analyzer, pkg string) {
	t.Helper()
	diags, wants := analyze(t, a, pkg)
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic at %s: %s", d.Position, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// RunGolden runs the analyzer over testdata/src/<pkg> like Run, then also
// compares the findings — exact file, line, column, and message — against
// the JSON golden file testdata/src/<pkg>/<analyzer>.golden.json. Set
// UPDATE_GOLDEN=1 to (re)generate the golden file instead of comparing.
// Want comments check positions by pattern; the golden pins them exactly,
// so a diagnostic drifting by a column is caught too.
func RunGolden(t *testing.T, a *framework.Analyzer, pkg string) {
	t.Helper()
	Run(t, a, pkg)

	diags, _ := analyze(t, a, pkg)
	findings := []framework.Finding{} // marshal as [] rather than null
	for _, d := range diags {
		f := framework.FindingOf(d, "")
		f.File = filepath.ToSlash(filepath.Base(f.File)) // fixture-dir independent
		findings = append(findings, f)
	}
	got, err := json.MarshalIndent(findings, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "src", pkg, a.Name+".golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (UPDATE_GOLDEN=1 to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("findings diverge from %s (UPDATE_GOLDEN=1 to regenerate)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// analyze loads, type-checks, and runs a over the fixture package,
// returning suppression-filtered diagnostics and the parsed expectations.
func analyze(t *testing.T, a *framework.Analyzer, pkg string) ([]framework.Diagnostic, []*expectation) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	var wants []*expectation
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
		wants = append(wants, parseWants(t, fset, f)...)
	}

	tpkg, info, err := loader.Check("fixture/"+pkg, fset, files, sharedExports(t).Importer(fset))
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", pkg, err)
	}
	diags, err := framework.RunAll([]*framework.Analyzer{a}, fset, files, tpkg, info, false)
	if err != nil {
		t.Fatal(err)
	}
	return diags, wants
}

func claim(wants []*expectation, d framework.Diagnostic) bool {
	for _, w := range wants {
		if w.hit || w.file != d.Position.Filename || w.line != d.Position.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			for _, q := range quotedRE.FindAllString(m[1], -1) {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
				}
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}
