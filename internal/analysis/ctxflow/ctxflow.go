// Package ctxflow enforces the query path's cancellation contract. The
// packages that execute queries (internal/core, internal/query,
// internal/urbane) thread a request context end to end so a deadline or a
// vanished client aborts renders mid-join; an exported entry point that
// fans out goroutines or streams draw calls in a loop without accepting a
// context.Context silently re-opens the uncancelable path:
//
//	func (r *RasterJoin) Blur(req Request) {
//		for i := 0; i < n; i += batch {
//			c.DrawPoints(...) // BAD: runs to completion after the client left
//		}
//	}
//
// The fix is a ctx parameter or a FooContext variant with a thin wrapper —
// the shape the rest of the query path already uses. Wrappers themselves
// are clean: delegating to the ctx variant involves neither a goroutine nor
// a draw loop. Draw calls are matched by method name (DrawPoints,
// DrawPolygon, DrawPolygonOutline) so fixtures and future
// canvas-like types are covered without depending on internal/gpu.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the ctxflow check.
var Analyzer = &framework.Analyzer{
	Name: "ctxflow",
	Doc:  "flags exported query-path functions that spawn goroutines or loop over draw calls without accepting a context.Context",
	Run:  run,
}

// watched are the import-path suffixes of the packages under the contract.
var watched = []string{"/core", "/query", "/urbane"}

// drawCalls are the canvas methods whose looped submission constitutes a
// streamed render pass.
var drawCalls = map[string]bool{
	"DrawPoints":         true,
	"DrawPolygon":        true,
	"DrawPolygonOutline": true,
}

func run(pass *framework.Pass) error {
	if pass.Pkg == nil || !watchedPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			if takesContext(pass, fn.Type) {
				continue
			}
			if what := offense(fn.Body); what != "" {
				pass.Reportf(fn.Name.Pos(),
					"exported function %s %s but accepts no context.Context; add a ctx parameter or a %sContext variant so the work is cancelable",
					fn.Name.Name, what, fn.Name.Name)
			}
		}
	}
	return nil
}

func watchedPkg(path string) bool {
	for _, suffix := range watched {
		if strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// takesContext reports whether any parameter is a context.Context.
func takesContext(pass *framework.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isContext(pass.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func isContext(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// offense describes the first uncancelable construct in body, or "".
func offense(body *ast.BlockStmt) string {
	what := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch st := n.(type) {
		case *ast.GoStmt:
			what = "spawns goroutines"
			return false
		case *ast.ForStmt:
			if containsDraw(st.Body) {
				what = "loops over draw calls"
				return false
			}
		case *ast.RangeStmt:
			if containsDraw(st.Body) {
				what = "loops over draw calls"
				return false
			}
		}
		return true
	})
	return what
}

// containsDraw reports whether the loop body submits a draw call anywhere,
// including through nested closures.
func containsDraw(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && drawCalls[sel.Sel.Name] {
			found = true
			return false
		}
		return true
	})
	return found
}
