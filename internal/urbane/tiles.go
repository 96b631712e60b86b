package urbane

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/mercator"
	"repro/internal/qcache"
	"repro/internal/render"
)

// RenderChoroplethContext runs the map view and renders it to PNG bytes at
// the given width — the programmatic form of /api/render/choropleth.png.
func (f *Framework) RenderChoroplethContext(ctx context.Context, sel Selection, width int) ([]byte, error) {
	ch, err := f.MapViewContext(ctx, sel)
	if err != nil {
		return nil, err
	}
	return f.renderChoropleth(ctx, ch, width)
}

// renderChoropleth paints a map view's values over its layer as PNG bytes
// at the given width. The layer is replayed from the device's span cache at
// the render transform, so only the first render of a layer at a width
// compiles it.
func (f *Framework) renderChoropleth(ctx context.Context, ch *Choropleth, width int) ([]byte, error) {
	rs, err := f.layer(ch.Layer)
	if err != nil {
		return nil, err
	}
	values := make([]float64, len(ch.Values))
	for i, v := range ch.Values {
		values[i] = v.Value
	}
	tr, err := render.ChoroplethTransform(rs, width)
	if err != nil {
		return nil, err
	}
	sp, err := f.rasterJoiner().CompiledSpans(ctx, rs, tr)
	if err != nil {
		return nil, err
	}
	img, err := render.ChoroplethSpans(sp, values, render.BlueRamp)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := render.EncodePNG(&buf, img); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// handleChoroplethPNG renders the map view directly to a PNG:
//
//	GET /api/render/choropleth.png?dataset=taxi&layer=neighborhoods
//	    &agg=count[&attr=fare][&w=800]
//
// Rendered images are served through the query-result cache and carry a
// strong ETag (cache key + generation), so revalidating clients get 304s
// without recomputing the aggregation. The PNG entry is per width; on a
// miss its values come from the selection entry the map view and
// /api/query share, read without counting a second cache outcome for the
// request, so the join runs only when no view of the selection has run it.
func (s *Server) handleChoroplethPNG(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	q := r.URL.Query()
	sel, err := s.parseSelection(selectionWire{
		Dataset: q.Get("dataset"), Layer: q.Get("layer"),
		Agg: q.Get("agg"), Attr: q.Get("attr"),
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	width := 800
	if ws := q.Get("w"); ws != "" {
		if width, err = strconv.Atoi(ws); err != nil || width < 16 || width > 4096 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad width %q", ws))
			return
		}
	}
	key := s.selectionSig(qcache.NewSig("choropng"), sel).Int("w", int64(width)).Key()
	selKey := s.selectionKey(sel)
	view := "choropleth.png/" + sel.Agg.String() + "/w=" + strconv.Itoa(width)
	s.serveCachedImage(w, r, key, "image/png", func(ctx context.Context) ([]byte, error) {
		val, outcome, err := s.cache.DoNested(ctx, selKey, selectionCompute(sel.Agg, view,
			func(ctx context.Context) (*core.Result, string, error) {
				return s.f.selectionResult(ctx, sel)
			}))
		if err != nil {
			return nil, err
		}
		res, err := s.readSelection(ctx, val, outcome, view)
		if err != nil {
			return nil, err
		}
		ch, err := s.choropleth(sel, res)
		if err != nil {
			return nil, err
		}
		return s.f.renderChoropleth(ctx, ch, width)
	})
}

// handleTile serves slippy-map density tiles:
//
//	GET /api/tile/{z}/{x}/{y}.png?dataset=taxi
//
// Each tile renders the data set's point density over the tile's mercator
// extent at 256x256 — composable over any web base map. Tiles are served
// through the query-result cache keyed by z/x/y + the query signature and
// revalidate via strong ETags (304 on If-None-Match).
func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/api/tile/")
	rest = strings.TrimSuffix(rest, ".png")
	parts := strings.Split(rest, "/")
	if len(parts) != 3 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("want /api/tile/{z}/{x}/{y}.png"))
		return
	}
	z, err1 := strconv.Atoi(parts[0])
	x, err2 := strconv.Atoi(parts[1])
	y, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || z < 0 || z > 24 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad tile address %q", rest))
		return
	}
	tile := mercator.Tile{Z: z, X: x, Y: y}
	dataset := r.URL.Query().Get("dataset")
	key := s.selectionSig(qcache.NewSig("tile"), Selection{Dataset: dataset}).
		Int("z", int64(z)).Int("x", int64(x)).Int("y", int64(y)).Key()
	s.serveCachedImage(w, r, key, "image/png", func(ctx context.Context) ([]byte, error) {
		hm, err := s.f.TileDensityContext(ctx, dataset, tile, nil)
		if err != nil {
			return nil, err
		}
		img, err := render.Density(hm.Counts, hm.W, hm.H, render.HeatRamp)
		if err != nil {
			return nil, internalErr(err)
		}
		var buf bytes.Buffer
		if err := render.EncodePNG(&buf, img); err != nil {
			return nil, internalErr(err)
		}
		return buf.Bytes(), nil
	})
}

// TileDensityContext returns the density counts for one slippy tile — the
// programmatic form of the tile endpoint.
func (f *Framework) TileDensityContext(ctx context.Context, dataset string, tile mercator.Tile, filters []core.Filter) (*Heatmap, error) {
	return f.HeatmapContext(ctx, HeatmapRequest{
		Dataset: dataset,
		W:       256, H: 256,
		Bounds:  tile.BBox(),
		Filters: filters,
	})
}
