// Package render turns query results into images: choropleth maps drawn
// with the same scanline rasterizer the join engine uses, and density
// rasters from the heatmap pass — the pixels Urbane's map view actually
// shows. Everything encodes to PNG via the standard library.
package render

import (
	"context"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/raster"
)

// Ramp maps a normalized value in [0,1] to a color.
type Ramp func(t float64) color.RGBA

// HeatRamp is a black-body style ramp: dark violet → red → orange → light
// yellow, perceptually ordered for density maps.
func HeatRamp(t float64) color.RGBA {
	t = clamp01(t)
	stops := []struct {
		t       float64
		r, g, b float64
	}{
		{0.00, 13, 8, 135},
		{0.25, 126, 3, 168},
		{0.50, 204, 71, 120},
		{0.75, 248, 149, 64},
		{1.00, 240, 249, 33},
	}
	for i := 1; i < len(stops); i++ {
		if t <= stops[i].t {
			f := (t - stops[i-1].t) / (stops[i].t - stops[i-1].t)
			return color.RGBA{
				R: uint8(lerp(stops[i-1].r, stops[i].r, f)),
				G: uint8(lerp(stops[i-1].g, stops[i].g, f)),
				B: uint8(lerp(stops[i-1].b, stops[i].b, f)),
				A: 255,
			}
		}
	}
	return color.RGBA{R: 240, G: 249, B: 33, A: 255}
}

// BlueRamp is a light-to-dark sequential ramp for choropleths.
func BlueRamp(t float64) color.RGBA {
	t = clamp01(t)
	return color.RGBA{
		R: uint8(lerp(247, 8, t)),
		G: uint8(lerp(251, 48, t)),
		B: uint8(lerp(255, 107, t)),
		A: 255,
	}
}

func clamp01(t float64) float64 {
	if t < 0 || math.IsNaN(t) {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

func lerp(a, b, t float64) float64 { return a + (b-a)*t }

// Choropleth renders region polygons filled by their normalized values,
// with darkened boundary pixels, using the join engine's own scanline and
// conservative rasterizers. values[i] colors rs.Regions[i]; regions with
// NaN values are drawn in light gray. It compiles the layer on
// ChoroplethTransform(rs, width) and paints it with ChoroplethSpans — the
// one drawing path, which servers feed from their span cache instead.
func Choropleth(rs *data.RegionSet, values []float64, width int, ramp Ramp) (*image.RGBA, error) {
	if len(values) != rs.Len() {
		return nil, fmt.Errorf("render: %d values for %d regions", len(values), rs.Len())
	}
	tr, err := ChoroplethTransform(rs, width)
	if err != nil {
		return nil, err
	}
	polys := make([]geom.Polygon, rs.Len())
	for k := range rs.Regions {
		polys[k] = rs.Regions[k].Poly
	}
	sp, err := raster.CompileRegions(context.Background(), tr, polys)
	if err != nil {
		return nil, err
	}
	return ChoroplethSpans(sp, values, ramp)
}

// ChoroplethTransform returns the canvas a choropleth of rs is drawn on:
// the layer's bounds at the given width (at least 16), the height following
// the bounds' aspect ratio.
func ChoroplethTransform(rs *data.RegionSet, width int) (raster.Transform, error) {
	if rs.Len() == 0 {
		return raster.Transform{}, fmt.Errorf("render: empty region set")
	}
	if width < 16 {
		width = 16
	}
	bounds := rs.Bounds()
	if bounds.IsEmpty() || bounds.Width() == 0 {
		return raster.Transform{}, fmt.Errorf("render: degenerate region bounds")
	}
	height := int(float64(width) * bounds.Height() / bounds.Width())
	if height < 1 {
		height = 1
	}
	return raster.NewTransform(bounds, width, height), nil
}

// ChoroplethSpans paints a layer compiled on a choropleth transform: every
// region's Fill spans in its value's color, in region order, then every
// region's Boundary pixels in the outline color. Fill(k) replays
// FillPolygonSpans' pixels in order and Boundary(k) the set BoundaryPixels
// visits, so the image is the one rasterizing the polygons draws.
func ChoroplethSpans(sp *raster.RegionSpans, values []float64, ramp Ramp) (*image.RGBA, error) {
	if len(values) != sp.Regions() {
		return nil, fmt.Errorf("render: %d values for %d regions", len(values), sp.Regions())
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	norm := func(v float64) float64 {
		if math.IsNaN(v) || hi <= lo {
			return 0
		}
		return (v - lo) / (hi - lo)
	}

	width, height := sp.T.W, sp.T.H
	img := image.NewRGBA(image.Rect(0, 0, width, height))
	bg := color.RGBA{R: 250, G: 250, B: 250, A: 255}
	for y := 0; y < height; y++ {
		paintRun(img, y, 0, width, bg)
	}
	// Fill pass (image rows grow downward; flip y).
	for k := range values {
		var c color.RGBA
		if math.IsNaN(values[k]) {
			c = color.RGBA{R: 224, G: 224, B: 224, A: 255}
		} else {
			c = ramp(norm(values[k]))
		}
		for _, s := range sp.Fill(k) {
			paintRun(img, height-1-int(s.Y), int(s.X0), int(s.X1), c)
		}
	}
	// Boundary pass: darken outline pixels.
	line := color.RGBA{R: 60, G: 60, B: 60, A: 255}
	for k := range values {
		for _, idx := range sp.Boundary(k) {
			px, py := int(idx)%width, int(idx)/width
			paintRun(img, height-1-py, px, px+1, line)
		}
	}
	return img, nil
}

// paintRun sets pixels [x0, x1) of image row y to c.
func paintRun(img *image.RGBA, y, x0, x1 int, c color.RGBA) {
	row := img.Pix[y*img.Stride+x0*4 : y*img.Stride+x1*4]
	for i := 0; i < len(row); i += 4 {
		row[i], row[i+1], row[i+2], row[i+3] = c.R, c.G, c.B, c.A
	}
}

// Density renders a row-major count grid (the heatmap payload) with
// log-scaled shading. Zero cells stay transparent-black so tiles composite
// over base maps.
func Density(counts []float64, w, h int, ramp Ramp) (*image.RGBA, error) {
	if len(counts) != w*h || w < 1 || h < 1 {
		return nil, fmt.Errorf("render: %d counts for %dx%d grid", len(counts), w, h)
	}
	peak := 0.0
	for _, v := range counts {
		if v > peak {
			peak = v
		}
	}
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	if peak == 0 {
		return img, nil
	}
	logMax := math.Log1p(peak)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := counts[y*w+x]
			if v <= 0 {
				continue
			}
			img.SetRGBA(x, h-1-y, ramp(math.Log1p(v)/logMax))
		}
	}
	return img, nil
}

// EncodePNG writes the image as PNG.
func EncodePNG(w io.Writer, img image.Image) error { return png.Encode(w, img) }
