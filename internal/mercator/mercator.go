// Package mercator implements the spherical Web-Mercator projection
// (EPSG:3857) and the slippy-map tile arithmetic Urbane's map view uses.
//
// Raster Join's error bound ε is expressed in ground meters; converting it
// to a canvas resolution requires the meters-per-pixel scale at the data's
// latitude, which this package provides.
package mercator

import (
	"math"

	"repro/internal/geom"
)

// EarthRadius is the WGS84 spherical radius in meters used by EPSG:3857.
const EarthRadius = 6378137.0

// MaxLatitude is the latitude bound of the square Web-Mercator world.
const MaxLatitude = 85.05112877980659

// LngLat is a geographic coordinate in degrees.
type LngLat struct {
	Lng, Lat float64
}

// Project converts a geographic coordinate to Web-Mercator meters.
// Latitudes are clamped to ±MaxLatitude.
func Project(ll LngLat) geom.Point {
	lat := clamp(ll.Lat, -MaxLatitude, MaxLatitude)
	x := EarthRadius * ll.Lng * math.Pi / 180
	y := EarthRadius * math.Log(math.Tan(math.Pi/4+lat*math.Pi/360))
	return geom.Point{X: x, Y: y}
}

// Unproject converts Web-Mercator meters back to a geographic coordinate.
func Unproject(p geom.Point) LngLat {
	lng := p.X / EarthRadius * 180 / math.Pi
	lat := (2*math.Atan(math.Exp(p.Y/EarthRadius)) - math.Pi/2) * 180 / math.Pi
	return LngLat{Lng: lng, Lat: lat}
}

// ProjectBBox projects the geographic box spanned by two corners.
func ProjectBBox(min, max LngLat) geom.BBox {
	a := Project(min)
	b := Project(max)
	return geom.NewBBox(a.X, a.Y, b.X, b.Y)
}

// GroundResolution returns ground meters per mercator meter at the given
// latitude: mercator distances are stretched by 1/cos(lat), so one mercator
// meter covers cos(lat) ground meters.
func GroundResolution(lat float64) float64 {
	return math.Cos(lat * math.Pi / 180)
}

// Tile addresses a slippy-map tile.
type Tile struct {
	Z, X, Y int
}

// BBox returns the tile's extent in Web-Mercator meters.
func (t Tile) BBox() geom.BBox {
	n := math.Exp2(float64(t.Z))
	world := 2 * math.Pi * EarthRadius
	size := world / n
	minX := -world/2 + float64(t.X)*size
	maxY := world/2 - float64(t.Y)*size
	return geom.BBox{MinX: minX, MinY: maxY - size, MaxX: minX + size, MaxY: maxY}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// NYC is the geographic bounding box of New York City used throughout the
// reproduction (matching the paper's primary workload).
var NYC = struct {
	Min, Max LngLat
	// CenterLat is used for meter/pixel conversions over the city.
	CenterLat float64
}{
	Min:       LngLat{Lng: -74.2591, Lat: 40.4774},
	Max:       LngLat{Lng: -73.7004, Lat: 40.9176},
	CenterLat: 40.7,
}

// NYCBounds returns New York City's extent in Web-Mercator meters.
func NYCBounds() geom.BBox { return ProjectBBox(NYC.Min, NYC.Max) }
