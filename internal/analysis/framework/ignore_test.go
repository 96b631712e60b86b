package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const auditSrc = `package p

func a() {
	//lint:ignore demo reason: suppresses the diagnostic below
	_ = hit()

	//lint:ignore demo reason: nothing flagged here anymore
	_ = clean()

	//lint:ignore
	_ = clean()

	//lint:ignore demo
	_ = clean()

	//lint:ignore nosuch reason: analyzer does not exist
	_ = clean()

	//lint:ignore other reason: that analyzer did not run this time
	_ = clean()
}

func hit() int   { return 0 }
func clean() int { return 0 }
`

// demoAnalyzer flags every call to hit().
var demoAnalyzer = &Analyzer{
	Name: "demo",
	Doc:  "flags calls to hit",
	Run: func(p *Pass) error {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "hit" {
						p.Reportf(c.Pos(), "call to hit")
					}
				}
				return true
			})
		}
		return nil
	},
}

func parseAudit(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "audit.go", auditSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestIgnoreSuppresses(t *testing.T) {
	fset, files := parseAudit(t)
	diags, err := RunAll([]*Analyzer{demoAnalyzer}, fset, files, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("expected the hit() diagnostic to be suppressed, got %v", diags)
	}
}

func TestAuditFindings(t *testing.T) {
	fset, files := parseAudit(t)
	universe := map[string]bool{"demo": true, "other": true}
	ran := map[string]bool{"demo": true}

	ig := BuildIgnores(fset, files)
	pass := &Pass{Analyzer: demoAnalyzer, Fset: fset, Files: files}
	if err := demoAnalyzer.Run(pass); err != nil {
		t.Fatal(err)
	}
	for _, d := range pass.Diagnostics() {
		ig.Ignored(d.Position, "demo")
	}

	diags := ig.Audit(universe, ran)
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}

	wantSubstrings := []string{
		"no longer suppresses any diagnostic",  // stale demo directive
		"missing analyzer name and reason",     // bare //lint:ignore
		"no reason given for suppressing demo", // name but no reason
		`names unknown analyzer "nosuch"`,      // unknown name
	}
	if len(got) != len(wantSubstrings) {
		t.Fatalf("want %d audit findings, got %d: %v", len(wantSubstrings), len(got), got)
	}
	for _, sub := range wantSubstrings {
		found := false
		for _, msg := range got {
			if strings.Contains(msg, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no audit finding containing %q in %v", sub, got)
		}
	}
	// The used directive and the one naming an analyzer that did not run
	// must NOT be reported.
	for _, msg := range got {
		if strings.Contains(msg, "other") {
			t.Errorf("directive for non-run analyzer wrongly audited: %q", msg)
		}
	}
	for _, d := range diags {
		if d.Analyzer != AuditName {
			t.Errorf("audit diagnostic attributed to %q, want %q", d.Analyzer, AuditName)
		}
	}
}

func TestRunAllAudits(t *testing.T) {
	fset, files := parseAudit(t)
	diags, err := RunAll([]*Analyzer{demoAnalyzer}, fset, files, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	// With only demo in the universe, "nosuch" and "other" are both
	// unknown; plus two malformed and one stale = 5 audit findings.
	if len(diags) != 5 {
		t.Fatalf("want 5 findings from RunAll with audit, got %d: %v", len(diags), diags)
	}
}

func TestBaselineSplit(t *testing.T) {
	f1 := Finding{File: "a.go", Line: 3, Analyzer: "demo", Message: "call to hit"}
	f2 := Finding{File: "a.go", Line: 9, Analyzer: "demo", Message: "call to hit"}
	f3 := Finding{File: "b.go", Line: 1, Analyzer: "demo", Message: "other thing"}

	b := &Baseline{Findings: []Finding{{File: "a.go", Line: 99, Analyzer: "demo", Message: "call to hit"}}}
	known, fresh := b.Split([]Finding{f1, f2, f3})
	if len(known) != 1 || known[0].Line != 3 {
		t.Fatalf("baseline should tolerate exactly one a.go finding (line-insensitively), got %v", known)
	}
	if len(fresh) != 2 {
		t.Fatalf("want 2 fresh findings, got %v", fresh)
	}
}
