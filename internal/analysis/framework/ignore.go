package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directive, staticcheck-flavoured:
//
//	//lint:ignore <name>[,<name>...] reason
//
// The directive suppresses the named analyzers (or every analyzer, for the
// name "all") on the directive's own line and on the line that follows it,
// so both of these work:
//
//	hm.Total += v //lint:ignore floataccum bounded error, hot path
//
//	//lint:ignore floataccum bounded error, hot path
//	hm.Total += v
//
// A reason is mandatory. Directives are not merely parsed — they are
// audited (see Audit): a malformed directive, a directive naming an
// analyzer that does not exist, and a directive that no longer suppresses
// any diagnostic are all findings in their own right, attributed to the
// pseudo-analyzer "suppress". That keeps the suppression inventory honest:
// every ignore in the tree names a real check, states a reason, and still
// earns its keep.

// AuditName is the pseudo-analyzer name audit findings are attributed to.
// It is not independently runnable and cannot itself be suppressed.
const AuditName = "suppress"

// Directive is one parsed //lint:ignore comment.
type Directive struct {
	Position token.Position // of the directive comment
	Names    []string       // suppressed analyzer names (empty if malformed)
	Reason   string
	Problem  string // non-empty if the directive is malformed

	used bool // set when the directive suppresses a diagnostic
}

// Ignores indexes every //lint:ignore directive in a package and records,
// as diagnostics are filtered through Ignored, which directives actually
// suppressed something.
type Ignores struct {
	directives []*Directive
	byLine     map[string]map[int][]*Directive // filename -> line -> covering directives
}

// Ignored reports whether analyzer name is suppressed at pos, marking any
// directive that grants the suppression as used.
func (ig *Ignores) Ignored(pos token.Position, name string) bool {
	if ig == nil || ig.byLine == nil {
		return false
	}
	hit := false
	for _, d := range ig.byLine[pos.Filename][pos.Line] {
		for _, n := range d.Names {
			if n == name || n == "all" {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}

// Audit returns one diagnostic per problematic directive: malformed,
// naming an unknown analyzer, or no longer suppressing anything. Staleness
// is only meaningful when every analyzer a directive names has actually
// run over the package — pass the names that ran in known; directives
// mentioning analyzers outside known are exempt from the staleness check
// (but not from the malformed/unknown checks, driven by universe: the
// full set of analyzers that exist).
func (ig *Ignores) Audit(universe, known map[string]bool) []Diagnostic {
	if ig == nil {
		return nil
	}
	var diags []Diagnostic
	report := func(d *Directive, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Position: d.Position,
			Analyzer: AuditName,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, d := range ig.directives {
		if d.Problem != "" {
			report(d, "malformed //lint:ignore directive: %s (want //lint:ignore <analyzer>[,<analyzer>] <reason>)", d.Problem)
			continue
		}
		auditable := true
		for _, n := range d.Names {
			if n == "all" {
				continue
			}
			if !universe[n] {
				report(d, "//lint:ignore names unknown analyzer %q (run urbane-lint -list for the set)", n)
				auditable = false
				continue
			}
			if !known[n] {
				auditable = false // that analyzer didn't run; can't judge staleness
			}
		}
		if auditable && !d.used {
			report(d, "//lint:ignore %s no longer suppresses any diagnostic; delete the directive", strings.Join(d.Names, ","))
		}
	}
	return diags
}

// BuildIgnores scans every comment in files for //lint:ignore directives.
func BuildIgnores(fset *token.FileSet, files []*ast.File) *Ignores {
	ig := &Ignores{byLine: make(map[string]map[int][]*Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d := parseIgnore(c.Text)
				if d == nil {
					continue
				}
				d.Position = fset.Position(c.Pos())
				ig.directives = append(ig.directives, d)
				if d.Problem != "" {
					continue // malformed directives suppress nothing
				}
				for _, line := range []int{d.Position.Line, d.Position.Line + 1} {
					lines := ig.byLine[d.Position.Filename]
					if lines == nil {
						lines = make(map[int][]*Directive)
						ig.byLine[d.Position.Filename] = lines
					}
					lines[line] = append(lines[line], d)
				}
			}
		}
	}
	return ig
}

// parseIgnore returns nil for comments that are not //lint:ignore
// directives at all, and a Directive (possibly with Problem set) for
// comments that are.
func parseIgnore(text string) *Directive {
	const directive = "//lint:ignore"
	if !strings.HasPrefix(text, directive) {
		return nil
	}
	rest := text[len(directive):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil // some other word, e.g. //lint:ignorefile
	}
	fields := strings.Fields(rest)
	switch len(fields) {
	case 0:
		return &Directive{Problem: "missing analyzer name and reason"}
	case 1:
		return &Directive{Problem: fmt.Sprintf("no reason given for suppressing %s", fields[0])}
	}
	return &Directive{
		Names:  strings.Split(fields[0], ","),
		Reason: strings.Join(fields[1:], " "),
	}
}
