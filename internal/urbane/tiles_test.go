package urbane

import (
	"bytes"
	"context"
	"encoding/json"
	"image/png"
	"net/http"
	"testing"

	"repro/internal/geom"
	"repro/internal/mercator"
	"repro/internal/render"
)

func TestRenderChoropleth(t *testing.T) {
	f, _, nbhd := buildTestFramework(t)
	ch, err := f.MapViewContext(context.Background(), Selection{Dataset: "taxi", Layer: "nbhd", Agg: 0})
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.renderChoropleth(context.Background(), ch, 400)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 400 {
		t.Errorf("width = %d", img.Bounds().Dx())
	}
	// The render replays the layer from the span cache: a warm render and
	// render.Choropleth's compile-then-replay draw the same bytes.
	hits := f.rasterJoiner().Device().SpanCache().Stats().Hits
	warm, err := f.renderChoropleth(context.Background(), ch, 400)
	if err != nil {
		t.Fatal(err)
	}
	if f.rasterJoiner().Device().SpanCache().Stats().Hits == hits {
		t.Error("warm render did not replay the cached layer")
	}
	values := make([]float64, len(ch.Values))
	for i, v := range ch.Values {
		values[i] = v.Value
	}
	pic, err := render.Choropleth(nbhd, values, 400, render.BlueRamp)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := render.EncodePNG(&direct, pic); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm, data) || !bytes.Equal(warm, direct.Bytes()) {
		t.Error("cold, warm and render.Choropleth PNGs differ")
	}
	// Errors propagate.
	if _, err := f.renderChoropleth(context.Background(), &Choropleth{Layer: "nope"}, 400); err == nil {
		t.Error("unknown layer should fail")
	}
}

func TestChoroplethPNGEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := doJSON(t, s, http.MethodGet,
		"/api/render/choropleth.png?dataset=taxi&layer=nbhd&agg=count&w=256", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/png" {
		t.Errorf("content type = %q", ct)
	}
	img, err := png.Decode(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 256 {
		t.Errorf("width = %d", img.Bounds().Dx())
	}
	// Errors.
	for _, url := range []string{
		"/api/render/choropleth.png?dataset=taxi&layer=nbhd&agg=median",
		"/api/render/choropleth.png?dataset=nope&layer=nbhd&agg=count",
		"/api/render/choropleth.png?dataset=taxi&layer=nbhd&agg=count&w=9",
	} {
		if rec := doJSON(t, s, http.MethodGet, url, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s status = %d", url, rec.Code)
		}
	}
	if rec := doJSON(t, s, http.MethodPost,
		"/api/render/choropleth.png?dataset=taxi&layer=nbhd", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", rec.Code)
	}
}

func TestTileEndpoint(t *testing.T) {
	// The tile endpoint needs mercator-positioned data; the unit-square
	// test framework still exercises the pipeline because the heatmap crop
	// simply renders empty tiles for non-overlapping extents.
	s, _ := testServer(t)
	rec := doJSON(t, s, http.MethodGet, "/api/tile/0/0/0.png?dataset=taxi", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	img, err := png.Decode(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 256 || img.Bounds().Dy() != 256 {
		t.Errorf("tile dims = %v", img.Bounds())
	}
	// Bad addresses, including x or y outside the zoom level's 2^z grid.
	for _, url := range []string{
		"/api/tile/zzz/0/0.png?dataset=taxi",
		"/api/tile/0/0.png?dataset=taxi",
		"/api/tile/0/0/0.png?dataset=nope",
		"/api/tile/2/9/1.png?dataset=taxi",
		"/api/tile/2/-3/1.png?dataset=taxi",
		"/api/tile/2/1/4.png?dataset=taxi",
		"/api/tile/2/1/-1.png?dataset=taxi",
		"/api/tile/0/5/5.png?dataset=taxi",
	} {
		rec := doJSON(t, s, http.MethodGet, url, nil)
		var env map[string]errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest ||
			env["error"].Status != http.StatusBadRequest || env["error"].Code != "bad_request" {
			t.Errorf("%s: status = %d (%s), want 400 in the error envelope",
				url, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
	if got := s.cache.Stats().Entries; got != 1 {
		t.Errorf("cache entries = %d, want 1: rejected addresses must not be cached", got)
	}
}

func TestTileDensityCoversData(t *testing.T) {
	f, _, _ := buildTestFramework(t)
	// The framework data lives in [0,1000]^2 mercator meters, in the
	// zoom-14 tile northeast of the origin; confirm points land in it.
	tile := mercator.Tile{Z: 14, X: 8192, Y: 8191}
	if !tile.BBox().Contains(geom.Point{X: 500, Y: 500}) {
		t.Fatalf("tile %v does not hold the data's center", tile)
	}
	hm, err := f.TileDensityContext(context.Background(), "taxi", tile, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hm.Total == 0 {
		t.Error("covering tile should capture points")
	}
	// A far-away tile is empty.
	far := mercator.Tile{Z: 14, X: 0, Y: 0}
	hm, err = f.TileDensityContext(context.Background(), "taxi", far, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hm.Total != 0 {
		t.Errorf("far tile total = %v", hm.Total)
	}
}
