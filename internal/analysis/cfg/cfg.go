// Package cfg builds intra-procedural control-flow graphs over Go function
// bodies using only the standard library's go/ast — the flow-sensitive
// backbone of urbane-lint's poolleak and gaugepair analyzers.
//
// The graph is a set of basic blocks. Each block holds the statements that
// execute straight-line within it, in execution order, and edges to its
// possible successors. Structured control flow (if/for/range/switch/
// type-switch/select), labeled break/continue, goto, fallthrough, and
// panic/os.Exit terminators are modeled; see DESIGN.md ("CFG & dataflow
// framework") for the precise scope and the known imprecision.
//
// Conventions the analyzers rely on:
//
//   - Blocks[0] is the entry block; Exit is a synthetic, statement-free
//     block every return (and the fall-off-the-end path) edges to.
//   - A block that ends in a two-way conditional branch has Cond set and
//     exactly two successors: Succs[0] is the true edge, Succs[1] the false
//     edge. Dataflow transfer functions can refine facts per edge (for
//     example, "err != nil" implies the paired resource was never acquired).
//   - A range loop header has Cond == nil but still branches: Succs[0]
//     enters the body, Succs[1] leaves the loop (zero iterations).
//   - defer statements appear as ordinary nodes at their registration
//     point. For may-leak style analyses this is the sound reading: every
//     path through the registration runs the deferred call at function
//     exit, and no path that skips it does.
//   - Function literals are opaque: their bodies are NOT inlined into the
//     enclosing graph (they run at call time, not in place). Analyzers
//     build a separate graph per FuncLit.
package cfg

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
)

// Block is one basic block.
type Block struct {
	Index int
	// Kind is a human-readable label ("entry", "if.then", "for.body", ...)
	// used by the golden dump; analyzers should not dispatch on it.
	Kind string
	// Nodes are the statements (and init statements / range clauses) that
	// execute in this block, in order.
	Nodes []ast.Node
	// Cond, when non-nil, is the boolean expression this block branches on:
	// Succs[0] is taken when Cond is true, Succs[1] when it is false.
	Cond  ast.Expr
	Succs []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Name labels the graph in dumps ("(*RasterJoin).drawTile", "func@12").
	Name   string
	Blocks []*Block
	Entry  *Block
	Exit   *Block

	preds map[*Block][]*Block
}

// Preds returns the predecessors of b (computed once, cached).
func (g *Graph) Preds(b *Block) []*Block {
	if g.preds == nil {
		g.preds = make(map[*Block][]*Block)
		for _, blk := range g.Blocks {
			for _, s := range blk.Succs {
				g.preds[s] = append(g.preds[s], blk)
			}
		}
	}
	return g.preds[b]
}

// builder carries the construction state.
type builder struct {
	g   *Graph
	cur *Block
	// break/continue targets, innermost last.
	breaks    []loopTarget
	continues []loopTarget
	// labels maps a label name to its goto target block. Forward gotos
	// create the block before the labeled statement is reached.
	labels map[string]*Block
	// pendingLabel is the label naming the next loop/switch/select, so
	// labeled break/continue can address it.
	pendingLabel string
}

type loopTarget struct {
	label string
	block *Block
}

// New builds the graph for a function body. name labels dumps; body may be
// any *ast.BlockStmt (FuncDecl.Body or FuncLit.Body).
func New(name string, body *ast.BlockStmt) *Graph {
	g := &Graph{Name: name}
	b := &builder{g: g, labels: make(map[string]*Block)}
	entry := b.newBlock("entry")
	g.Entry = entry
	g.Exit = &Block{Kind: "exit"}
	b.cur = entry
	b.stmtList(body.List)
	// Fall off the end of the body: implicit return.
	b.jump(g.Exit)
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

// FuncName renders a display name for a FuncDecl ("(*T).m" or "f").
func FuncName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), fd.Recv.List[0].Type)
	return "(" + buf.String() + ")." + fd.Name.Name
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump adds an edge cur -> to unless cur already terminated.
func (b *builder) jump(to *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, to)
	}
	b.cur = nil
}

// startBlock makes blk the current block.
func (b *builder) startBlock(blk *Block) { b.cur = blk }

// emit appends a straight-line node to the current block, reviving a dead
// current block as unreachable code.
func (b *builder) emit(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// terminates reports whether a call expression never returns.
func terminates(call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fn.X.(*ast.Ident); ok {
			name := pkg.Name + "." + fn.Sel.Name
			switch name {
			case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln",
				"runtime.Goexit":
				return true
			}
		}
	}
	return false
}

func (b *builder) stmt(s ast.Stmt) {
	// Any non-loop/switch/select statement consumes a pending label as a
	// plain goto target.
	switch s.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt,
		*ast.SelectStmt, *ast.LabeledStmt:
	default:
		b.pendingLabel = ""
	}

	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.emit(s)
		b.jump(b.g.Exit)

	case *ast.ExprStmt:
		b.emit(s)
		if call, ok := s.X.(*ast.CallExpr); ok && terminates(call) {
			b.jump(b.g.Exit)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		if b.cur == nil {
			b.cur = b.newBlock("unreachable")
		}
		cond := b.cur
		cond.Cond = s.Cond
		then := b.newBlock("if.then")
		after := b.newBlock("if.after")
		cond.Succs = append(cond.Succs, then)
		b.startBlock(then)
		b.stmt(s.Body)
		b.jump(after)
		if s.Else != nil {
			els := b.newBlock("if.else")
			cond.Succs = append(cond.Succs, els)
			b.startBlock(els)
			b.stmt(s.Else)
			b.jump(after)
		} else {
			cond.Succs = append(cond.Succs, after)
		}
		b.startBlock(after)

	case *ast.ForStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		if s.Init != nil {
			b.emit(s.Init)
		}
		head := b.newBlock("for.head")
		b.jump(head)
		body := b.newBlock("for.body")
		after := b.newBlock("for.after")
		if s.Cond != nil {
			head.Cond = s.Cond
			head.Succs = append(head.Succs, body, after)
		} else {
			head.Succs = append(head.Succs, body)
		}
		// continue targets the post statement (modeled at body end), break
		// targets after.
		b.breaks = append(b.breaks, loopTarget{label, after})
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			post.Succs = append(post.Succs, head)
		}
		b.continues = append(b.continues, loopTarget{label, post})
		b.startBlock(body)
		b.stmt(s.Body)
		b.jump(post)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.startBlock(after)

	case *ast.RangeStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		head := b.newBlock("range.head")
		b.jump(head)
		// The RangeStmt node itself carries the per-iteration key/value
		// assignment; it lives in the head so each iteration re-executes it.
		head.Nodes = append(head.Nodes, s)
		body := b.newBlock("range.body")
		after := b.newBlock("range.after")
		head.Succs = append(head.Succs, body, after)
		b.breaks = append(b.breaks, loopTarget{label, after})
		b.continues = append(b.continues, loopTarget{label, head})
		b.startBlock(body)
		b.stmt(s.Body)
		b.jump(head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.startBlock(after)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		var bodyList []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				b.emit(sw.Init)
			}
			if sw.Tag != nil {
				b.emit(&ast.ExprStmt{X: sw.Tag})
			}
			bodyList = sw.Body.List
		case *ast.TypeSwitchStmt:
			if sw.Init != nil {
				b.emit(sw.Init)
			}
			b.emit(sw.Assign)
			bodyList = sw.Body.List
		}
		if b.cur == nil {
			b.cur = b.newBlock("unreachable")
		}
		head := b.cur
		after := b.newBlock("switch.after")
		b.breaks = append(b.breaks, loopTarget{label, after})
		var caseBlocks []*Block
		hasDefault := false
		for _, cl := range bodyList {
			cc := cl.(*ast.CaseClause)
			blk := b.newBlock("switch.case")
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, &ast.ExprStmt{X: e})
			}
			head.Succs = append(head.Succs, blk)
			caseBlocks = append(caseBlocks, blk)
		}
		if !hasDefault {
			head.Succs = append(head.Succs, after)
		}
		for i, cl := range bodyList {
			cc := cl.(*ast.CaseClause)
			b.startBlock(caseBlocks[i])
			n := len(cc.Body)
			fallsThrough := false
			if n > 0 {
				if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					fallsThrough = true
					n--
				}
			}
			b.stmtList(cc.Body[:n])
			if fallsThrough && i+1 < len(caseBlocks) {
				b.jump(caseBlocks[i+1])
			} else {
				b.jump(after)
			}
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.startBlock(after)

	case *ast.SelectStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		if b.cur == nil {
			b.cur = b.newBlock("unreachable")
		}
		head := b.cur
		after := b.newBlock("select.after")
		b.breaks = append(b.breaks, loopTarget{label, after})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock("select.case")
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			head.Succs = append(head.Succs, blk)
			b.startBlock(blk)
			b.stmtList(cc.Body)
			b.jump(after)
		}
		if len(s.Body.List) == 0 {
			// select{} blocks forever.
			b.jump(b.g.Exit)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.startBlock(after)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := findTarget(b.breaks, s.Label); t != nil {
				b.emit(s)
				b.jump(t)
			}
		case token.CONTINUE:
			if t := findTarget(b.continues, s.Label); t != nil {
				b.emit(s)
				b.jump(t)
			}
		case token.GOTO:
			if s.Label != nil {
				b.emit(s)
				b.jump(b.labelBlock(s.Label.Name))
			}
		case token.FALLTHROUGH:
			// Handled inside switch building; a stray one is ignored.
		}

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.jump(lb)
		b.startBlock(lb)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)

	default:
		// Assign, Decl, IncDec, Send, Go, Defer, Empty: straight-line.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.emit(s)
	}
}

func findTarget(stack []loopTarget, label *ast.Ident) *Block {
	if label == nil {
		for i := len(stack) - 1; i >= 0; i-- {
			return stack[i].block
		}
		return nil
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return nil
}

func (b *builder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}
