package cfg

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDumpGolden builds the CFG of every function in the fixture file and
// compares the block/edge structure against the committed golden dump.
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/analysis/cfg.
func TestDumpGolden(t *testing.T) {
	src := filepath.Join("testdata", "funcs.go")
	golden := filepath.Join("testdata", "funcs.golden")

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, src, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		sb.WriteString(New(FuncName(fd), fd.Body).Dump(fset))
		sb.WriteString("\n")
	}
	got := sb.String()

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("CFG dump drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestStructure asserts structural invariants the analyzers rely on, beyond
// what the golden dump pins: branch blocks have exactly two successors with
// Succs[0] the true edge, returns edge to Exit, and every block is
// reachable or explicitly dead.
func TestStructure(t *testing.T) {
	const src = `package p
func f(a, b int) int {
	if a > b {
		return a
	}
	for i := 0; i < b; i++ {
		if i == 3 {
			break
		}
		a += i
	}
	return b
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "s.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	g := New("f", fd.Body)

	if g.Entry != g.Blocks[0] {
		t.Fatalf("entry is not Blocks[0]")
	}
	if len(g.Exit.Succs) != 0 || len(g.Exit.Nodes) != 0 {
		t.Fatalf("exit block must be empty and terminal")
	}
	condBlocks := 0
	for _, b := range g.Blocks {
		if b.Cond != nil {
			condBlocks++
			if len(b.Succs) != 2 {
				t.Errorf("b%d has Cond but %d successors", b.Index, len(b.Succs))
			}
		}
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				found := false
				for _, s := range b.Succs {
					if s == g.Exit {
						found = true
					}
				}
				if !found {
					t.Errorf("b%d holds a return but does not edge to exit", b.Index)
				}
			}
		}
	}
	if condBlocks != 3 { // a > b, loop cond, i == 3
		t.Errorf("want 3 conditional blocks, got %d", condBlocks)
	}
	if !reachable(g, g.Exit) {
		t.Errorf("exit unreachable from entry")
	}
}

// TestForwardMay checks the engine on a tiny gen/kill problem: a fact
// generated before a branch survives to exit only on the path that does not
// kill it, and an edge function can kill a fact on the true edge.
func TestForwardMay(t *testing.T) {
	const src = `package p
func f(c bool) {
	gen()
	if c {
		kill()
	}
	done()
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "s.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := New("f", f.Decls[0].(*ast.FuncDecl).Body)

	type fact struct{ name string }
	fct := &fact{"r"}
	callName := func(n ast.Node) string {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return ""
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return ""
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return ""
		}
		return id.Name
	}
	transfer := func(b *Block, in Set[*fact]) Set[*fact] {
		out := in.Clone()
		for _, n := range b.Nodes {
			switch callName(n) {
			case "gen":
				out[fct] = true
			case "kill":
				delete(out, fct)
			}
		}
		return out
	}

	res := Forward(g, transfer, nil)
	if !res.AtExit(g)[fct] {
		t.Errorf("fact should may-reach exit via the c==false path")
	}

	// Now kill the fact on the true edge of every conditional: the only
	// path keeping it goes through kill() anyway, so it still may-reach
	// exit via the false path; killing on the false edge instead removes
	// every clean path.
	edgeKillFalse := func(from, to *Block, out Set[*fact]) Set[*fact] {
		if from.Cond != nil && len(from.Succs) == 2 && to == from.Succs[1] {
			o := out.Clone()
			delete(o, fct)
			return o
		}
		return out
	}
	res = Forward(g, transfer, edgeKillFalse)
	if res.AtExit(g)[fct] {
		t.Errorf("fact should not reach exit: false edge kills it, true path calls kill()")
	}
}

func reachable(g *Graph, target *Block) bool {
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == target {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(g.Entry)
}

// Dump renders the graph in a stable text form for golden tests: one line
// per block with its kind, abbreviated statements, condition, and successor
// indices.
func (g *Graph) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s:\n", g.Name)
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "  b%d %s:", blk.Index, blk.Kind)
		for _, n := range blk.Nodes {
			fmt.Fprintf(&sb, " {%s}", render(fset, n))
		}
		if blk.Cond != nil {
			fmt.Fprintf(&sb, " if {%s}", render(fset, blk.Cond))
		}
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// render prints a node as single-line source, truncated for readability.
func render(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.RawFormat}
	if err := cfg.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := strings.Join(strings.Fields(buf.String()), " ")
	const max = 48
	if len(s) > max {
		s = s[:max] + "…"
	}
	return s
}
