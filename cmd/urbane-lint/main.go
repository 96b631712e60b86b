// Command urbane-lint is the project's static-analysis multichecker: it
// type-checks the requested packages and runs the numerics, determinism
// and flow-sensitive invariant analyzers tuned to this codebase's failure
// modes.
//
// Usage:
//
//	urbane-lint [-analyzers name,name] [-list] [-json]
//	            [-baseline file] [-write-baseline file] [packages]
//
// With no packages it analyzes ./... . Exit status: 0 clean, 1 findings,
// 2 usage or load errors. Suppress an individual finding with
//
//	//lint:ignore <analyzer> <reason>
//
// on (or on the line above) the flagged line; the reason is mandatory.
// When the full analyzer set runs, every //lint:ignore directive is
// itself audited (pseudo-analyzer "suppress"): directives that are
// malformed, name an unknown analyzer, or no longer suppress anything
// are findings.
//
// -json emits findings as a JSON array (paths repo-relative) instead of
// text. -baseline file tolerates findings recorded in the committed
// baseline — matching on (file, analyzer, message), not line numbers, so
// CI judges a change only on the findings it introduces. -write-baseline
// regenerates that file from the current findings.
//
// The checks:
//
//	floataccum  — naive float += reduction loops (suggests internal/fsum)
//	poolleak    — CFG/dataflow: texture/canvas acquires that miss their
//	              release on some path to return
//	gaugepair   — CFG/dataflow: gauge increments not balanced by a
//	              decrement on every path
//	ctxpoll     — kernel draw loops that hold a context but never poll it
//	envelope    — urbane handlers bypassing the JSON error envelope
//	detrand     — process-global or clock-seeded math/rand in the
//	              replay-deterministic packages
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis/ctxpoll"
	"repro/internal/analysis/detrand"
	"repro/internal/analysis/envelope"
	"repro/internal/analysis/floataccum"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/gaugepair"
	"repro/internal/analysis/loader"
	"repro/internal/analysis/poolleak"
)

var all = []*framework.Analyzer{
	floataccum.Analyzer,
	poolleak.Analyzer,
	gaugepair.Analyzer,
	ctxpoll.Analyzer,
	envelope.Analyzer,
	detrand.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("urbane-lint", flag.ContinueOnError)
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all, which also enables the suppression audit)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	verbose := fs.Bool("v", false, "log each package as it is analyzed")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	baselinePath := fs.String("baseline", "", "tolerate findings recorded in this baseline file")
	writeBaseline := fs.String("write-baseline", "", "write current findings to this baseline file and exit 0")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range all {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(out, "%-12s %s\n", framework.AuditName,
			"(automatic with the full set) audits //lint:ignore directives: malformed, unknown analyzer, or stale")
		return 0
	}
	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "urbane-lint:", err)
		return 2
	}
	// The suppression audit needs every analyzer's verdict on every
	// directive, so it only runs with the full set.
	audit := len(analyzers) == len(all)
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "urbane-lint:", err)
		return 2
	}
	pkgs, err := loader.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "urbane-lint:", err)
		return 2
	}

	findings := []framework.Finding{}
	for _, pkg := range pkgs {
		if *verbose && !*jsonOut {
			fmt.Fprintf(out, "# %s\n", pkg.ImportPath)
		}
		diags, err := framework.RunAll(analyzers, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, audit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urbane-lint:", err)
			return 2
		}
		for _, d := range diags {
			findings = append(findings, framework.FindingOf(d, wd))
		}
	}

	if *writeBaseline != "" {
		if err := framework.WriteBaseline(*writeBaseline, findings); err != nil {
			fmt.Fprintln(os.Stderr, "urbane-lint:", err)
			return 2
		}
		fmt.Fprintf(out, "urbane-lint: wrote %d finding(s) to %s\n", len(findings), *writeBaseline)
		return 0
	}

	known := []framework.Finding{}
	fresh := findings
	if *baselinePath != "" {
		b, err := framework.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urbane-lint:", err)
			return 2
		}
		known, fresh = b.Split(findings)
		if fresh == nil {
			fresh = []framework.Finding{} // -json must emit [], not null
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fresh); err != nil {
			fmt.Fprintln(os.Stderr, "urbane-lint:", err)
			return 2
		}
	} else {
		for _, f := range fresh {
			fmt.Fprintf(out, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
		}
		if len(known) > 0 {
			fmt.Fprintf(out, "urbane-lint: %d baselined finding(s) tolerated\n", len(known))
		}
		if len(fresh) > 0 {
			fmt.Fprintf(out, "urbane-lint: %d finding(s)\n", len(fresh))
		}
	}
	if len(fresh) > 0 {
		return 1
	}
	return 0
}

func selectAnalyzers(names string) ([]*framework.Analyzer, error) {
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*framework.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*framework.Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", n)
		}
		picked = append(picked, a)
	}
	return picked, nil
}
