package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// readmeRow matches one row of README's analyzer table: "| `name` | ... |".
var readmeRow = regexp.MustCompile("^\\| `([a-z]+)` \\|")

// TestReadmeAnalyzerTable: the analyzers README's "Static analysis & CI"
// table documents are exactly the driver's full set, so neither side can
// gain or lose an analyzer without the other.
func TestReadmeAnalyzerTable(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n## Static analysis & CI\n")
	if !ok {
		t.Fatal(`README has no "## Static analysis & CI" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, line := range strings.Split(section, "\n") {
		if m := readmeRow.FindStringSubmatch(line); m != nil {
			documented = append(documented, m[1])
		}
	}
	var driver []string
	for _, a := range all {
		driver = append(driver, a.Name)
	}
	slices.Sort(documented)
	slices.Sort(driver)
	if !slices.Equal(documented, driver) {
		t.Errorf("README analyzer table lists %v; the driver runs %v", documented, driver)
	}
}
