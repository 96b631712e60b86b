// Package framework is a self-contained miniature of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics.
//
// The x/tools module is deliberately not a dependency — this repo builds
// offline with the standard library only — so the subset implemented here
// is exactly what the urbane-lint analyzers need: syntax + full type
// information, position-tagged diagnostics, and //lint:ignore suppression
// (see ignore.go).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. Name must be a single lower-case
// word; it is how diagnostics are attributed and how //lint:ignore
// directives address the check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far, sorted by position.
func (p *Pass) Diagnostics() []Diagnostic {
	sortDiagnostics(p.diags)
	return p.diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// ObjectOf resolves an identifier through Uses then Defs.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.ObjectOf(id)
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.TypeOf(e)
}

// RunAll executes every analyzer over one package through a single shared
// suppression index, so //lint:ignore usage is tracked across the whole
// set. When audit is true the suppression audit runs afterwards and its
// findings — malformed directives, unknown analyzer names, directives
// that no longer suppress anything — are appended, attributed to the
// pseudo-analyzer AuditName. Only pass audit=true when analyzers is the
// full set: staleness cannot be judged for a directive whose analyzer
// never ran.
func RunAll(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, audit bool) ([]Diagnostic, error) {
	ig := BuildIgnores(fset, files)
	ran := make(map[string]bool, len(analyzers))
	var keep []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		ran[a.Name] = true
		for _, d := range pass.Diagnostics() {
			if ig.Ignored(d.Position, a.Name) {
				continue
			}
			keep = append(keep, d)
		}
	}
	if audit {
		keep = append(keep, ig.Audit(ran, ran)...)
	}
	sortDiagnostics(keep)
	return keep, nil
}
