package data

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/geom"
	"repro/internal/mercator"
)

// geoJSON wire types (the subset Urbane exchanges: Polygon features with
// id/name properties). Coordinates are [x, y] pairs in whatever CRS the
// caller uses; this reproduction stores mercator meters.
type gjFeatureCollection struct {
	Type     string      `json:"type"`
	Features []gjFeature `json:"features"`
}

type gjFeature struct {
	Type       string       `json:"type"`
	Properties gjProperties `json:"properties"`
	Geometry   gjGeometry   `json:"geometry"`
}

type gjProperties struct {
	ID   int    `json:"id"`
	Name string `json:"name,omitempty"`
}

type gjGeometry struct {
	Type        string         `json:"type"`
	Coordinates [][][2]float64 `json:"coordinates"`
}

// WriteGeoJSON encodes the region set as a GeoJSON FeatureCollection of
// Polygon features. Rings are closed on output (first vertex repeated) per
// the GeoJSON convention.
func WriteGeoJSON(w io.Writer, rs *RegionSet) error {
	fc := gjFeatureCollection{Type: "FeatureCollection"}
	for _, r := range rs.Regions {
		g := gjGeometry{Type: "Polygon"}
		g.Coordinates = append(g.Coordinates, closeRing(r.Poly.Outer))
		for _, h := range r.Poly.Holes {
			g.Coordinates = append(g.Coordinates, closeRing(h))
		}
		fc.Features = append(fc.Features, gjFeature{
			Type:       "Feature",
			Properties: gjProperties{ID: r.ID, Name: r.Name},
			Geometry:   g,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(fc)
}

// ReadGeoJSON decodes a FeatureCollection of Polygon features produced by
// WriteGeoJSON (or any compatible source). Non-polygon geometries are
// rejected.
func ReadGeoJSON(r io.Reader, name string) (*RegionSet, error) {
	var fc gjFeatureCollection
	dec := json.NewDecoder(r)
	if err := dec.Decode(&fc); err != nil {
		return nil, fmt.Errorf("data: decoding geojson: %w", err)
	}
	if fc.Type != "FeatureCollection" {
		return nil, fmt.Errorf("data: geojson root type %q, want FeatureCollection", fc.Type)
	}
	rs := &RegionSet{Name: name}
	for i, f := range fc.Features {
		if f.Geometry.Type == "MultiPolygon" {
			return nil, fmt.Errorf("data: feature %d is a MultiPolygon; split multi-part "+
				"regions into one Polygon feature per part before loading", i)
		}
		if f.Geometry.Type != "Polygon" {
			return nil, fmt.Errorf("data: feature %d has geometry %q, want Polygon", i, f.Geometry.Type)
		}
		if len(f.Geometry.Coordinates) == 0 {
			return nil, fmt.Errorf("data: feature %d has no rings", i)
		}
		pg := geom.Polygon{Outer: openRing(f.Geometry.Coordinates[0])}
		for _, ring := range f.Geometry.Coordinates[1:] {
			pg.Holes = append(pg.Holes, openRing(ring))
		}
		pg.Normalize()
		if err := pg.Validate(); err != nil {
			return nil, fmt.Errorf("data: feature %d: %w", i, err)
		}
		rs.Regions = append(rs.Regions, Region{ID: f.Properties.ID, Name: f.Properties.Name, Poly: pg})
	}
	return rs, nil
}

// ReadGeoJSONAuto decodes a FeatureCollection and detects its CRS: when
// every coordinate fits in geographic degree ranges (|lng| <= 180,
// |lat| <= 85.06) the file is treated as EPSG:4326 and projected to
// mercator meters; otherwise coordinates are taken as mercator meters
// as-is. Real city open-data portals publish degrees; this repo's own
// datagen output is meters — Auto accepts both.
func ReadGeoJSONAuto(r io.Reader, name string) (*RegionSet, error) {
	rs, err := ReadGeoJSON(r, name)
	if err != nil {
		return nil, err
	}
	if !looksGeographic(rs) {
		return rs, nil
	}
	project := func(ring geom.Ring) {
		for i, p := range ring {
			ring[i] = mercator.Project(mercator.LngLat{Lng: p.X, Lat: p.Y})
		}
	}
	for i := range rs.Regions {
		project(rs.Regions[i].Poly.Outer)
		for _, h := range rs.Regions[i].Poly.Holes {
			project(h)
		}
		rs.Regions[i].Poly.Normalize()
	}
	return rs, nil
}

// looksGeographic reports whether every vertex fits in lng/lat degree
// ranges. A non-empty mercator-meter layer over any real city violates
// this immediately (city extents are tens of kilometers).
func looksGeographic(rs *RegionSet) bool {
	if rs.Len() == 0 {
		return false
	}
	b := rs.Bounds()
	return b.MinX >= -180 && b.MaxX <= 180 &&
		b.MinY >= -mercator.MaxLatitude && b.MaxY <= mercator.MaxLatitude
}

// closeRing converts a geom.Ring to GeoJSON coordinates with the first
// vertex repeated at the end.
func closeRing(r geom.Ring) [][2]float64 {
	out := make([][2]float64, 0, len(r)+1)
	for _, p := range r {
		out = append(out, [2]float64{p.X, p.Y})
	}
	if len(r) > 0 {
		out = append(out, [2]float64{r[0].X, r[0].Y})
	}
	return out
}

// openRing converts GeoJSON coordinates to a geom.Ring, dropping the
// repeated closing vertex when present.
func openRing(coords [][2]float64) geom.Ring {
	n := len(coords)
	if n > 1 && coords[0] == coords[n-1] {
		n--
	}
	r := make(geom.Ring, n)
	for i := 0; i < n; i++ {
		r[i] = geom.Point{X: coords[i][0], Y: coords[i][1]}
	}
	return r
}
