// Package poolleak is the flow-sensitive render-resource leak check: every
// pooled GPU resource a function acquires must be released on *every* path
// to return — including early error returns and ctx-abort branches. This is
// the static counterpart of the chaos harness's LiveCanvases/LiveTextures
// zero-after-abort assertions: a leak the gauges would catch at runtime is
// caught here at lint time.
//
//	countTex := dev.AcquireTexture(w, h)
//	if err := doWork(ctx); err != nil {
//		return err // BAD: countTex never released on this path
//	}
//	dev.ReleaseTexture(countTex)
//
// The analysis builds the function's CFG (internal/analysis/cfg) and runs a
// forward may-reach dataflow: an acquire site generates a "live resource"
// fact bound to the assigned local; a release — direct, deferred, or inside
// a deferred closure — kills it. A fact that may reach the synthetic exit
// block is a path on which the resource leaks, and the acquire site is
// reported. This is path analysis, not string matching: moving the release
// onto only one branch of an if re-flags the site.
//
// Matching is by method name, so fixtures and future device-like types are
// covered without importing internal/gpu:
//
//	acquire: AcquireTexture, AcquireTextureFilled, NewCanvas
//	release: ReleaseTexture, ReleaseTextureFilled, Release
//
// Precision notes (see DESIGN.md):
//   - A resource that escapes — assigned to a field, slice, map or
//     captured struct, returned, or sent on a channel — transfers ownership
//     and stops being tracked.
//   - For the two-result form `c, err := dev.NewCanvas(...)`, the fact is
//     killed on the "err != nil" edge (the acquire failed, c is nil), so
//     the idiomatic early error return just after an acquire is clean.
//   - An "x == nil" / "x != nil" guard on the resource itself likewise
//     kills the fact on the nil edge.
package poolleak

import (
	"go/ast"
	"go/token"

	"repro/internal/analysis/cfg"
	"repro/internal/analysis/framework"
)

// Analyzer is the poolleak check.
var Analyzer = &framework.Analyzer{
	Name: "poolleak",
	Doc:  "flags pooled textures/canvases not released on every path to return (CFG-based leak analysis)",
	Run:  run,
}

var acquireNames = map[string]string{
	"AcquireTexture":       "texture",
	"AcquireTextureFilled": "texture",
	"NewCanvas":            "canvas",
}

var releaseNames = map[string]bool{
	"ReleaseTexture":       true,
	"ReleaseTextureFilled": true,
	"Release":              true,
}

// fact is one tracked acquisition: the local it is bound to, plus the
// paired error variable for two-result acquires.
type fact struct {
	assign *ast.AssignStmt // the acquiring statement
	pos    token.Pos       // position of the acquire call
	obj    any             // types.Object of the resource local
	errObj any             // types.Object of the paired err, or nil
	what   string          // "texture" or "canvas"
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, cfg.FuncName(fn), fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, "func literal", fn.Body)
			}
			return true
		})
	}
	return nil
}

// checkFunc analyzes one function body. Nested function literals are
// analyzed separately (the CFG does not inline them).
func checkFunc(pass *framework.Pass, name string, body *ast.BlockStmt) {
	facts := collectAcquires(pass, body)
	if len(facts) == 0 {
		return
	}
	g := cfg.New(name, body)

	transfer := func(b *cfg.Block, in cfg.Set[*fact]) cfg.Set[*fact] {
		out := in.Clone()
		for _, n := range b.Nodes {
			for _, fct := range facts {
				switch {
				case n == ast.Node(fct.assign):
					out[fct] = true
				case out[fct] && kills(pass, n, fct):
					delete(out, fct)
				}
			}
		}
		return out
	}
	edge := func(from, to *cfg.Block, out cfg.Set[*fact]) cfg.Set[*fact] {
		if from.Cond == nil || len(from.Succs) != 2 {
			return out
		}
		refined := out
		copied := false
		for fct := range out {
			if k, ok := nilEdgeKill(pass, from, to, fct); ok && k {
				if !copied {
					refined = out.Clone()
					copied = true
				}
				delete(refined, fct)
			}
		}
		return refined
	}

	res := cfg.Forward(g, transfer, edge)
	for fct := range res.AtExit(g) {
		pass.Reportf(fct.pos,
			"%s acquired here is not released on every path to return; release it (or defer the release) on the early-return and abort paths too", fct.what)
	}
}

// collectAcquires finds `v := x.AcquireTexture(...)` style assignments that
// bind a pooled resource to a plain local identifier.
func collectAcquires(pass *framework.Pass, body *ast.BlockStmt) []*fact {
	var facts []*fact
	ast.Inspect(body, func(n ast.Node) bool {
		// Do not descend into nested function bodies.
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		what, ok := acquireNames[calleeName(call)]
		if !ok {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true // bound to a field/index: ownership escapes at birth
		}
		fct := &fact{assign: as, pos: call.Pos(), obj: pass.ObjectOf(id), what: what}
		if fct.obj == nil {
			return true
		}
		if len(as.Lhs) == 2 {
			if eid, ok := as.Lhs[1].(*ast.Ident); ok && eid.Name != "_" {
				fct.errObj = pass.ObjectOf(eid)
			}
		}
		facts = append(facts, fct)
		return true
	})
	return facts
}

// calleeName returns the final name of a call's callee.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// kills reports whether executing node n ends the obligation for fct:
// a release of the resource, a deferred release (directly or inside a
// deferred or spawned closure), or an escape that transfers ownership.
func kills(pass *framework.Pass, n ast.Node, fct *fact) bool {
	switch s := n.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && isReleaseOf(pass, call, fct) {
			return true
		}
	case *ast.DeferStmt:
		if releasesWithin(pass, s.Call, fct) {
			return true
		}
	case *ast.GoStmt:
		// A spawned goroutine that releases the resource owns it now.
		if releasesWithin(pass, s.Call, fct) {
			return true
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if mentionsDirect(pass, r, fct) {
				return true // returned to the caller: ownership transfers
			}
		}
	case *ast.AssignStmt:
		if s == fct.assign {
			return false
		}
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok && pass.ObjectOf(id) == fct.obj {
				return true // reassigned: old binding gone, stop tracking
			}
		}
		for _, r := range s.Rhs {
			if escapesInto(pass, r, fct) {
				return true // stored in a field/slice/map/struct: escapes
			}
		}
	case *ast.SendStmt:
		if mentionsDirect(pass, s.Value, fct) {
			return true // handed to another goroutine
		}
	}
	return false
}

// isReleaseOf matches `dev.ReleaseTexture(v)` and `v.Release()` for fct's
// resource local v.
func isReleaseOf(pass *framework.Pass, call *ast.CallExpr, fct *fact) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !releaseNames[sel.Sel.Name] {
		return false
	}
	// v.Release()
	if id, ok := sel.X.(*ast.Ident); ok && pass.ObjectOf(id) == fct.obj && len(call.Args) == 0 {
		return true
	}
	// dev.ReleaseTexture(v)
	for _, a := range call.Args {
		if id, ok := a.(*ast.Ident); ok && pass.ObjectOf(id) == fct.obj {
			return true
		}
	}
	return false
}

// releasesWithin reports whether the call — or, when it invokes a function
// literal, any statement of that literal's body — releases fct's resource.
func releasesWithin(pass *framework.Pass, call *ast.CallExpr, fct *fact) bool {
	if isReleaseOf(pass, call, fct) {
		return true
	}
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok && isReleaseOf(pass, c, fct) {
			found = true
			return false
		}
		return true
	})
	return found
}

// mentionsDirect reports whether expr is (or contains as a direct value,
// e.g. inside a composite literal or unary &) the resource identifier.
// Field reads like v.T do not count.
func mentionsDirect(pass *framework.Pass, expr ast.Expr, fct *fact) bool {
	found := false
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		if found {
			return
		}
		switch e := e.(type) {
		case *ast.Ident:
			if pass.ObjectOf(e) == fct.obj {
				found = true
			}
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.ParenExpr:
			walk(e.X)
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				walk(el)
			}
		case *ast.KeyValueExpr:
			walk(e.Value)
		case *ast.FuncLit:
			// A closure capturing the resource may release it later —
			// ownership is shared with the closure; stop tracking.
			ast.Inspect(e.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == fct.obj {
					found = true
					return false
				}
				return !found
			})
		}
	}
	walk(expr)
	return found
}

// escapesInto reports whether the RHS expression stores the resource into a
// longer-lived structure (composite literal, closure capture, address-of).
// A bare function-call argument is deliberately NOT an escape: helpers like
// drawRegion(c, ...) borrow the canvas, they do not take ownership, and
// treating calls as escapes would hide real leaks.
func escapesInto(pass *framework.Pass, expr ast.Expr, fct *fact) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		return pass.ObjectOf(e) == fct.obj
	case *ast.UnaryExpr, *ast.ParenExpr, *ast.CompositeLit, *ast.KeyValueExpr, *ast.FuncLit:
		return mentionsDirect(pass, expr, fct)
	}
	return false
}

// nilEdgeKill decides whether the edge from->to kills fct based on a nil
// comparison in from's condition. Returns (kill, applies).
func nilEdgeKill(pass *framework.Pass, from, to *cfg.Block, fct *fact) (bool, bool) {
	be, ok := from.Cond.(*ast.BinaryExpr)
	if !ok {
		return false, false
	}
	var id *ast.Ident
	switch {
	case isNil(be.Y):
		id, _ = be.X.(*ast.Ident)
	case isNil(be.X):
		id, _ = be.Y.(*ast.Ident)
	}
	if id == nil {
		return false, false
	}
	obj := pass.ObjectOf(id)
	onTrue := to == from.Succs[0]
	switch {
	case fct.errObj != nil && obj == fct.errObj:
		// err != nil: acquire failed on the true edge -> resource is nil.
		if be.Op == token.NEQ {
			return onTrue, true
		}
		if be.Op == token.EQL {
			return !onTrue, true
		}
	case obj == fct.obj:
		// v == nil: nothing to release on the nil edge.
		if be.Op == token.EQL {
			return onTrue, true
		}
		if be.Op == token.NEQ {
			return !onTrue, true
		}
	}
	return false, false
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
