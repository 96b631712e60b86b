// Package workload assembles the standard evaluation scenes shared by the
// benchmark harness (cmd/urbane-bench), the root testing.B benchmarks, and
// the demo scenario tests (internal/urbane): the synthetic NYC taxi workload
// over neighborhood, tract, and grid layers, matching the paper's primary
// demo data.
package workload

import (
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/mercator"
)

// Scene bundles the point data and region layers of one evaluation setup.
type Scene struct {
	// Taxi is the synthetic NYC yellow-cab data set (January 2009).
	Taxi *data.PointSet
	// Neighborhoods is the ~260-region jittered Voronoi layer standing in
	// for NYC's neighborhood polygons.
	Neighborhoods *data.RegionSet
	// Tracts is a finer ~2000-region layer standing in for census tracts.
	Tracts *data.RegionSet
	// Grid is Urbane's 64x64 grid resolution.
	Grid *data.RegionSet
	// Bounds is the NYC extent in Web-Mercator meters.
	Bounds geom.BBox
}

// NeighborhoodCount mirrors NYC's ~260 neighborhood polygons.
const NeighborhoodCount = 260

// TractCount approximates NYC's ~2100 census tracts.
const TractCount = 2048

// NYC builds the standard scene with n taxi points. Generation is
// deterministic in seed.
func NYC(n int, seed int64) *Scene {
	bounds := mercator.NYCBounds()
	return &Scene{
		Taxi:          data.Generate(data.NYCTaxiConfig(n, 2009, time.January, seed)),
		Neighborhoods: Neighborhoods(seed + 1),
		Tracts:        Tracts(seed + 2),
		Grid:          data.GridRegions("grid64", bounds, 64, 64),
		Bounds:        bounds,
	}
}

// Neighborhoods builds just the neighborhood layer.
func Neighborhoods(seed int64) *data.RegionSet {
	return data.VoronoiRegions("neighborhoods", mercator.NYCBounds(), NeighborhoodCount,
		seed, data.VoronoiOptions{JitterFrac: 0.12})
}

// Tracts builds just the tract layer.
func Tracts(seed int64) *data.RegionSet {
	return data.VoronoiRegions("tracts", mercator.NYCBounds(), TractCount,
		seed, data.VoronoiOptions{JitterFrac: 0.08})
}

// Jan2009 returns the time filter covering the paper's Figure-1 month.
func Jan2009() *core.TimeFilter {
	start := time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	end := time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC).Unix()
	return &core.TimeFilter{Start: start, End: end}
}

// JanWeek returns the time filter for the w-th week of January 2009
// (w in 0..3) — the ad-hoc sub-window used by the interaction experiments.
func JanWeek(w int) *core.TimeFilter {
	start := time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7*w).Unix()
	return &core.TimeFilter{Start: start, End: start + 7*86400}
}

// GroundMeters converts a ground-distance ε in meters at NYC's latitude to
// mercator meters, the unit the raster joiner's epsilon is expressed in.
func GroundMeters(eps float64) float64 {
	return eps / mercator.GroundResolution(mercator.NYC.CenterLat)
}

// AdHocPolygon returns a user-drawn region set: one star polygon over lower
// Manhattan — the shape pre-aggregation cannot serve.
func AdHocPolygon(seed int64) *data.RegionSet {
	center := mercator.Project(mercator.LngLat{Lng: -73.99, Lat: 40.73})
	poly := data.UserPolygon(center, 4000, seed)
	return &data.RegionSet{
		Name:    "user-drawn",
		Regions: []data.Region{{ID: 0, Name: "sketch", Poly: poly}},
	}
}
