// Package floataccum flags naive floating-point accumulation loops in the
// aggregation kernels:
//
//	var sum float64
//	for _, v := range attr {
//		sum += v // error grows O(n·eps) over millions of points
//	}
//
// A `+=` / `-=` is reported when (a) it sits in a loop, (b) the target is a
// float whose root variable outlives that loop, and (c) the added term
// depends on a variable bound inside the loop — i.e. a genuine reduction
// over the iterated data. Loop-invariant stepping (x += dx in a DDA
// traversal) and integer counters are not reductions and stay quiet.
//
// The fix is repro/internal/fsum (fsum.Sum / fsum.Pairwise / an fsum.Kahan
// accumulator); sites where naive accumulation is deliberate — bounded trip
// counts, per-pixel hot paths with bounded magnitude spread — carry a
// //lint:ignore floataccum directive with the justification.
package floataccum

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer is the floataccum check.
var Analyzer = &framework.Analyzer{
	Name: "floataccum",
	Doc:  "flags naive float += reduction loops; suggests compensated summation (internal/fsum)",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		var stack []ast.Node
		var loops []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if isLoop(top) {
					loops = loops[:len(loops)-1]
				}
				return true
			}
			stack = append(stack, n)
			if isLoop(n) {
				loops = append(loops, n)
			}
			if as, ok := n.(*ast.AssignStmt); ok && len(loops) > 0 {
				checkAssign(pass, as, loops[len(loops)-1])
			}
			return true
		})
	}
	return nil
}

func isLoop(n ast.Node) bool {
	switch n.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		return true
	}
	return false
}

func checkAssign(pass *framework.Pass, as *ast.AssignStmt, loop ast.Node) {
	if as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN {
		return
	}
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	lhs, rhs := as.Lhs[0], as.Rhs[0]
	if !isFloat(pass.TypeOf(lhs)) {
		return
	}
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	obj := pass.ObjectOf(root)
	if obj == nil || withinLoop(obj, loop) {
		return // loop-local temporary, not an accumulator
	}
	if !dependsOnLoop(pass, rhs, loop) {
		return // loop-invariant stepping, not a reduction
	}
	pass.Reportf(as.Pos(), "naive float accumulation into %q over loop-varying terms; rounding error grows with trip count — use fsum.Sum/fsum.Pairwise or an fsum.Kahan accumulator", root.Name)
}

// withinLoop reports whether obj is declared inside the loop statement.
func withinLoop(obj types.Object, loop ast.Node) bool {
	return obj.Pos() >= loop.Pos() && obj.Pos() < loop.End()
}

// dependsOnLoop reports whether e references any variable bound inside the
// loop (the range/index variable or a loop-body local).
func dependsOnLoop(pass *framework.Pass, e ast.Expr, loop ast.Node) bool {
	dep := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.ObjectOf(id)
		if v, isVar := obj.(*types.Var); isVar && withinLoop(v, loop) {
			dep = true
			return false
		}
		return true
	})
	return dep
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
