package urbane

// Golden-shape test for the full /api/stats document: dashboards and the
// bench harness consume it by key, so the set of keys, their JSON types,
// and the nesting of every block are a public contract. The golden file
// records the shape (not the values — counters and uptimes churn freely);
// any key added, removed, renamed, or retyped must show up as a reviewed
// golden diff. Regenerate with UPDATE_GOLDEN=1 go test ./internal/urbane
// -run TestStatsShape.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// shapeOf renders a canonical type-shape of a decoded JSON value: objects
// as sorted key:shape lines, arrays as the shape of their first element
// ("[]" when empty), scalars as their JSON type name. Indentation mirrors
// nesting so the golden file reads as a document outline.
func shapeOf(v any, indent string, sb *strings.Builder) {
	switch x := v.(type) {
	case map[string]any:
		sb.WriteString("{\n")
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sb.WriteString(indent + "  " + k + ": ")
			shapeOf(x[k], indent+"  ", sb)
			sb.WriteString("\n")
		}
		sb.WriteString(indent + "}")
	case []any:
		if len(x) == 0 {
			sb.WriteString("[]")
			return
		}
		sb.WriteString("[")
		shapeOf(x[0], indent, sb)
		sb.WriteString("]")
	case string:
		sb.WriteString("string")
	case float64:
		sb.WriteString("number")
	case bool:
		sb.WriteString("bool")
	case nil:
		sb.WriteString("null")
	default:
		sb.WriteString(fmt.Sprintf("%T", v))
	}
}

// TestStatsShapeGolden boots a server with every optional block populated
// — incremental maintenance, admission — issues traffic so the gauges and endpoint histograms materialize, and
// pins the full /api/stats document shape against testdata.
func TestStatsShapeGolden(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	f.EnableIncremental(1800, 0, 0)
	srv := NewServer(f, WithCache(1<<20), WithTimeSnap(1800))

	// One compute query plus one stats poll so gauges, endpoint histograms,
	// and cache counters all have rows.
	body := `{"dataset":"taxi","layer":"nbhd","agg":"sum","attr":"fare","filters":[{"attr":"fare","min":0,"max":100}]}`
	req := httptest.NewRequest(http.MethodPost, "/api/mapview", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("mapview: status %d (%s)", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rec.Code)
	}
	var doc any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	// The gauges map's keys are part of the served document and stable for
	// this fixed request sequence; shapeOf records them via the map shape.
	var sb strings.Builder
	shapeOf(doc, "", &sb)
	sb.WriteString("\n")
	got := sb.String()

	golden := filepath.Join("testdata", "stats_shape.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (UPDATE_GOLDEN=1 to generate): %v", err)
	}
	if got != string(want) {
		t.Errorf("/api/stats shape changed (UPDATE_GOLDEN=1 to accept):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
