package render

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/mercator"
	"repro/internal/workload"
)

// TestChoroplethGolden pins the PNG bytes of the scene's three layers at
// three widths by their SHA-256. The values spread over the ramp and leave
// every 17th region NaN, so fills, the NaN gray and the outlines all
// appear. UPDATE_GOLDEN=1 rewrites the file.
func TestChoroplethGolden(t *testing.T) {
	layers := []*data.RegionSet{
		workload.Neighborhoods(2010),
		workload.Tracts(2011),
		data.GridRegions("grid64", mercator.NYCBounds(), 64, 64),
	}
	var sb strings.Builder
	for _, rs := range layers {
		values := make([]float64, rs.Len())
		for k := range values {
			values[k] = float64(k * 7919 % 1000)
			if k%17 == 16 {
				values[k] = math.NaN()
			}
		}
		for _, width := range []int{128, 256, 800} {
			img, err := Choropleth(rs, values, width, BlueRamp)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := EncodePNG(&buf, img); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			fmt.Fprintf(&sb, "%s %d %s\n", rs.Name, width, hex.EncodeToString(sum[:]))
		}
	}
	got := sb.String()

	golden := filepath.Join("testdata", "choropleth_png.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
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
		t.Errorf("choropleth digests differ from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
