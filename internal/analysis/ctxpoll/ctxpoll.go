// Package ctxpoll enforces the cancellation contract inside the render
// kernels (internal/gpu, internal/core): a function that holds a request
// context and loops over per-item draw work — points, regions, tiles, bins
// — must actually poll that context inside the loop, or the loop runs to
// completion long after the client has gone:
//
//	func (r *R) pass(ctx context.Context, c *Canvas) {
//		for _, rg := range regions {
//			drawRegion(c, rg) // BAD: unbounded work between polls
//		}
//	}
//
// A loop is compliant when, somewhere in its per-iteration subtree, it
//
//   - calls ctx.Err() or ctx.Done() on any context.Context value (the
//     `for ctx.Err() == nil { ... }` worker-loop shape counts: the
//     condition is part of the loop), or
//   - passes a context.Context to a callee — delegated polling, the shape
//     batched and parallelCtx use.
//
// Draw work is matched by callee name (draw/fill/blend/shade/raster/render
// prefixes plus the conservative-trace helpers), so fixtures need no
// internal/gpu import. Statements inside nested function literals are the
// literal's own business (they execute at call time), except that the
// polling rules above still apply to the loop that contains the literal's
// call when the context is passed in.
package ctxpoll

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the ctxpoll check.
var Analyzer = &framework.Analyzer{
	Name: "ctxpoll",
	Doc:  "flags draw-work loops in context-holding kernel functions that never poll ctx.Err() nor delegate the context",
	Run:  run,
}

// watched are the import-path suffixes of the kernel packages under the
// contract.
var watched = []string{"/gpu", "/core"}

// workPrefixes match per-item render work by callee name, case-insensitive.
var workPrefixes = []string{"draw", "fill", "blend", "shade", "raster", "render"}

// workNames are exact callee names that count as draw work.
var workNames = map[string]bool{
	"BoundaryPixels": true,
	"CompileRegions": true,
}

func run(pass *framework.Pass) error {
	if pass.Pkg == nil || !watchedPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil && holdsContext(pass, fn.Body) {
					checkBody(pass, fn.Body)
				}
			case *ast.FuncLit:
				// Closures (goroutine bodies, Tiles callbacks) are checked
				// too when a context is in scope inside them.
				if holdsContext(pass, fn.Body) {
					checkBody(pass, fn.Body)
				}
			}
			return true
		})
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

// holdsContext reports whether any identifier of type context.Context is
// referenced in body — a parameter or a captured outer ctx both count: if
// the function can see a context, its loops can poll it.
func holdsContext(pass *framework.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && isContext(pass.TypeOf(id)) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isContext(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// checkBody flags offending loops at this function's nesting level; nested
// function literals are visited separately by run.
func checkBody(pass *framework.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		var loop ast.Node
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loop = n
		default:
			return true
		}
		if loopDoesWork(loop) && !loopPolls(pass, loop) {
			pass.Reportf(loop.Pos(),
				"loop performs draw work but neither polls ctx.Err() nor passes the context to a callee; an abandoned request renders to completion here")
		}
		return true
	})
	return
}

// loopDoesWork reports whether the loop's own subtree (closures excluded —
// their work runs when they are called) contains a draw-work call.
func loopDoesWork(loop ast.Node) bool {
	found := false
	inspectSkippingFuncLits(loop, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if isWorkName(calleeName(call)) {
			found = true
		}
	})
	return found
}

// loopPolls reports whether the loop polls a context or hands one to a
// callee, anywhere in its subtree including the condition. Calls inside
// nested closures do not count — a poll that only runs if someone invokes
// the closure is not a poll of this loop.
func loopPolls(pass *framework.Pass, loop ast.Node) bool {
	polls := false
	inspectSkippingFuncLits(loop, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		// ctx.Err() / ctx.Done()
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isContext(pass.TypeOf(sel.X)) {
				polls = true
				return
			}
		}
		// delegated: any argument of type context.Context
		for _, a := range call.Args {
			if isContext(pass.TypeOf(a)) {
				polls = true
				return
			}
		}
	})
	return polls
}

// inspectSkippingFuncLits walks the subtree of root without descending into
// nested function literals (root itself may be anything).
func inspectSkippingFuncLits(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		fn(n)
		return true
	})
}

func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

func isWorkName(name string) bool {
	if name == "" {
		return false
	}
	if workNames[name] {
		return true
	}
	lower := strings.ToLower(name)
	for _, p := range workPrefixes {
		if strings.HasPrefix(lower, p) {
			return true
		}
	}
	return false
}
