package data

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/mercator"
)

// Hotspot is one component of the spatial Gaussian mixture a generator
// samples from: a center in mercator meters, an isotropic standard
// deviation, and a mixture weight.
type Hotspot struct {
	Center geom.Point
	Sigma  float64 // meters
	Weight float64
}

// GenConfig parameterizes a synthetic spatio-temporal data set. The
// defaults produced by the dataset constructors (NYCTaxiConfig etc.) are
// calibrated to the spatial skew and temporal periodicity of the paper's
// NYC workloads; see DESIGN.md for the substitution rationale.
type GenConfig struct {
	Name string
	N    int
	Seed int64
	// Bounds clips generated locations; samples falling outside are
	// re-drawn uniformly within it (modelling the data cleaning the paper's
	// pipeline applies).
	Bounds   geom.BBox
	Hotspots []Hotspot
	// Uniform is the probability mass drawn uniformly over Bounds rather
	// than from the mixture (background noise).
	Uniform float64
	// Start/End bound the timestamps.
	Start, End time.Time
	// DiurnalAmplitude in [0,1] scales the day/night cycle: 0 = uniform in
	// time, 1 = strong rush-hour peaks.
	DiurnalAmplitude float64
	// Attr declarations; see AttrSpec.
	AttrSpecs []AttrSpec
	// Dropoffs adds destination coordinates ("dropoff_x"/"dropoff_y"
	// columns, mercator meters) sampled from the same mixture, and derives
	// the "distance" (trip km) and "fare" attributes — when declared — from
	// the actual origin-destination pair instead of the log-normal base,
	// keeping the taxi data self-consistent for OD-flow queries.
	Dropoffs bool
}

// DropoffXAttr and DropoffYAttr name the destination coordinate columns
// generated when GenConfig.Dropoffs is set.
const (
	DropoffXAttr = "dropoff_x"
	DropoffYAttr = "dropoff_y"
)

// AttrSpec declares a synthetic attribute column drawn from a log-normal
// base with optional correlation to distance-from-center (taxi fares grow
// with trip length; complaint severities do not).
type AttrSpec struct {
	Name string
	// Mu, Sigma are the parameters of the log-normal base value.
	Mu, Sigma float64
	// DistanceCoeff adds coeff * (km from the first hotspot) to the value,
	// correlating the attribute with geography.
	DistanceCoeff float64
	// Round truncates values to integers when true (passenger counts).
	Round bool
}

// Generate materializes the configured data set. Generation is
// deterministic for a fixed config.
func Generate(cfg GenConfig) *PointSet {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.N
	ps := &PointSet{
		Name: cfg.Name,
		X:    make([]float64, n),
		Y:    make([]float64, n),
		T:    make([]int64, n),
	}
	for _, spec := range cfg.AttrSpecs {
		ps.Attrs = append(ps.Attrs, Column{Name: spec.Name, Values: make([]float64, n)})
	}
	var dropX, dropY []float64
	if cfg.Dropoffs {
		dropX = make([]float64, n)
		dropY = make([]float64, n)
	}
	// Ground meters per mercator meter at the study area's latitude, for
	// trip distances.
	groundRes := mercator.GroundResolution(mercator.Unproject(cfg.Bounds.Center()).Lat)

	totalW := 0.0
	for _, h := range cfg.Hotspots {
		//lint:ignore floataccum a handful of hotspot weights, all O(1) magnitude
		totalW += h.Weight
	}

	start := cfg.Start.Unix()
	dur := cfg.End.Unix() - start
	if dur <= 0 {
		dur = 1
	}
	var center geom.Point
	if len(cfg.Hotspots) > 0 {
		center = cfg.Hotspots[0].Center
	} else {
		center = cfg.Bounds.Center()
	}

	diurnal := diurnalTable{amplitude: cfg.DiurnalAmplitude}
	if cfg.DiurnalAmplitude > 0 {
		diurnal.w = make([]float64, 86400)
	}

	for i := 0; i < n; i++ {
		// Location: mixture sample, redrawn uniformly when out of bounds.
		var p geom.Point
		if totalW == 0 || rng.Float64() < cfg.Uniform {
			p = uniformIn(rng, cfg.Bounds)
		} else {
			h := pickHotspot(rng, cfg.Hotspots, totalW)
			p = geom.Point{
				X: h.Center.X + rng.NormFloat64()*h.Sigma,
				Y: h.Center.Y + rng.NormFloat64()*h.Sigma,
			}
			if !cfg.Bounds.Contains(p) {
				p = uniformIn(rng, cfg.Bounds)
			}
		}
		ps.X[i], ps.Y[i] = p.X, p.Y

		// Time: rejection-sample against the diurnal profile.
		ts := start + rng.Int63n(dur)
		if cfg.DiurnalAmplitude > 0 {
			for tries := 0; tries < 8; tries++ {
				if rng.Float64() < diurnal.weight(ts) {
					break
				}
				ts = start + rng.Int63n(dur)
			}
		}
		ps.T[i] = ts

		// Destination (OD mode): another mixture draw.
		var tripKM float64
		if cfg.Dropoffs {
			var d geom.Point
			if totalW == 0 || rng.Float64() < cfg.Uniform {
				d = uniformIn(rng, cfg.Bounds)
			} else {
				h := pickHotspot(rng, cfg.Hotspots, totalW)
				d = geom.Point{
					X: h.Center.X + rng.NormFloat64()*h.Sigma,
					Y: h.Center.Y + rng.NormFloat64()*h.Sigma,
				}
				if !cfg.Bounds.Contains(d) {
					d = uniformIn(rng, cfg.Bounds)
				}
			}
			dropX[i], dropY[i] = d.X, d.Y
			tripKM = p.Dist(d) * groundRes / 1000
		}

		// Attributes.
		distKM := p.Dist(center) / 1000
		for k, spec := range cfg.AttrSpecs {
			var v float64
			switch {
			case cfg.Dropoffs && spec.Name == "distance":
				// Street distance exceeds the crow-flies trip length.
				v = tripKM * (1.2 + 0.15*rng.NormFloat64())
				if v < 0.1 {
					v = 0.1
				}
			case cfg.Dropoffs && spec.Name == "fare":
				// NYC-style meter: flag drop plus per-km rate plus noise.
				v = 2.5 + 2.2*tripKM*(1+0.1*rng.NormFloat64()) +
					math.Exp(0.2*rng.NormFloat64())
			default:
				v = math.Exp(spec.Mu+spec.Sigma*rng.NormFloat64()) + spec.DistanceCoeff*distKM
			}
			if spec.Round {
				v = math.Max(1, math.Floor(v))
			}
			ps.Attrs[k].Values[i] = v
		}
	}
	if cfg.Dropoffs {
		ps.AddAttr(DropoffXAttr, dropX)
		ps.AddAttr(DropoffYAttr, dropY)
	}
	ps.SortByTime()
	return ps
}

func uniformIn(rng *rand.Rand, b geom.BBox) geom.Point {
	return geom.Point{
		X: b.MinX + rng.Float64()*b.Width(),
		Y: b.MinY + rng.Float64()*b.Height(),
	}
}

func pickHotspot(rng *rand.Rand, hs []Hotspot, totalW float64) Hotspot {
	v := rng.Float64() * totalW
	for _, h := range hs {
		//lint:ignore floataccum weighted-sampling walk over a handful of hotspots
		v -= h.Weight
		if v <= 0 {
			return h
		}
	}
	return hs[len(hs)-1]
}

// diurnalWeight returns an acceptance probability in (0,1] with morning
// (8am) and evening (7pm) peaks, the taxi pickup pattern.
func diurnalWeight(ts int64, amplitude float64) float64 {
	h := float64(ts%86400) / 3600 // UTC hour of day; offset is immaterial
	peak := math.Exp(-sq(h-8)/8) + math.Exp(-sq(h-19)/8)
	w := (1 - amplitude) + amplitude*peak/1.2
	if w > 1 {
		w = 1
	}
	if w < 0.05 {
		w = 0.05
	}
	return w
}

func sq(v float64) float64 { return v * v }

// diurnalTable memoises diurnalWeight for one amplitude over the second of
// the day, ts % 86400, the only part of ts the weight reads: an entry is
// computed on first use (0 marks it unset; a weight is at least 0.05), so a
// generation takes each second's two exponentials once and returns the
// same bits as a direct call. A negative ts, whose remainder is negative,
// calls diurnalWeight directly.
type diurnalTable struct {
	amplitude float64
	w         []float64
}

func (d *diurnalTable) weight(ts int64) float64 {
	r := ts % 86400
	if r < 0 {
		return diurnalWeight(ts, d.amplitude)
	}
	if w := d.w[r]; w != 0 {
		return w
	}
	w := diurnalWeight(ts, d.amplitude)
	d.w[r] = w
	return w
}

// nycHotspots returns a Manhattan-weighted mixture over the NYC mercator
// bounds: heavy mass in midtown/downtown Manhattan, secondary mass at the
// airports and in brooklyn, matching the strong skew of taxi pickups.
func nycHotspots() []Hotspot {
	ll := func(lng, lat float64) geom.Point {
		return mercator.Project(mercator.LngLat{Lng: lng, Lat: lat})
	}
	return []Hotspot{
		{Center: ll(-73.985, 40.757), Sigma: 1800, Weight: 0.40}, // midtown
		{Center: ll(-74.006, 40.713), Sigma: 1500, Weight: 0.18}, // downtown
		{Center: ll(-73.955, 40.779), Sigma: 1600, Weight: 0.14}, // upper east side
		{Center: ll(-73.778, 40.641), Sigma: 1200, Weight: 0.07}, // JFK
		{Center: ll(-73.874, 40.774), Sigma: 900, Weight: 0.05},  // LGA
		{Center: ll(-73.950, 40.650), Sigma: 2500, Weight: 0.09}, // brooklyn
		{Center: ll(-73.920, 40.760), Sigma: 2000, Weight: 0.07}, // queens west
	}
}

// NYCTaxiConfig returns a generator configuration standing in for the NYC
// yellow-taxi trip records of the given month: fares correlated with trip
// distance from midtown, passenger counts, and strong diurnal structure.
func NYCTaxiConfig(n int, year int, month time.Month, seed int64) GenConfig {
	start := time.Date(year, month, 1, 0, 0, 0, 0, time.UTC)
	return GenConfig{
		Name:             "taxi",
		N:                n,
		Seed:             seed,
		Bounds:           mercator.NYCBounds(),
		Hotspots:         nycHotspots(),
		Uniform:          0.04,
		Start:            start,
		End:              start.AddDate(0, 1, 0),
		DiurnalAmplitude: 0.7,
		Dropoffs:         true,
		AttrSpecs: []AttrSpec{
			{Name: "fare", Mu: 2.3, Sigma: 0.45, DistanceCoeff: 0.9},
			{Name: "distance", Mu: 0.8, Sigma: 0.6, DistanceCoeff: 0.35},
			{Name: "passengers", Mu: 0.3, Sigma: 0.5, Round: true},
		},
	}
}

// NYC311Config stands in for the 311 service-request data set: complaint
// hotspots spread across the boroughs, weak diurnal structure, a severity
// attribute uncorrelated with geography.
func NYC311Config(n int, year int, month time.Month, seed int64) GenConfig {
	ll := func(lng, lat float64) geom.Point {
		return mercator.Project(mercator.LngLat{Lng: lng, Lat: lat})
	}
	start := time.Date(year, month, 1, 0, 0, 0, 0, time.UTC)
	return GenConfig{
		Name:   "311",
		N:      n,
		Seed:   seed,
		Bounds: mercator.NYCBounds(),
		Hotspots: []Hotspot{
			{Center: ll(-73.92, 40.83), Sigma: 3000, Weight: 0.30}, // bronx
			{Center: ll(-73.95, 40.65), Sigma: 3500, Weight: 0.28}, // brooklyn
			{Center: ll(-73.80, 40.72), Sigma: 4000, Weight: 0.22}, // queens
			{Center: ll(-73.98, 40.76), Sigma: 2500, Weight: 0.20}, // manhattan
		},
		Uniform:          0.10,
		Start:            start,
		End:              start.AddDate(0, 1, 0),
		DiurnalAmplitude: 0.3,
		AttrSpecs: []AttrSpec{
			{Name: "severity", Mu: 0.9, Sigma: 0.7},
		},
	}
}

// NYCPhotosConfig stands in for the geotagged-photo data set ([8,10] in the
// paper's intro): extreme concentration at landmarks, no useful attributes
// beyond location and time.
func NYCPhotosConfig(n int, year int, month time.Month, seed int64) GenConfig {
	ll := func(lng, lat float64) geom.Point {
		return mercator.Project(mercator.LngLat{Lng: lng, Lat: lat})
	}
	start := time.Date(year, month, 1, 0, 0, 0, 0, time.UTC)
	return GenConfig{
		Name:   "photos",
		N:      n,
		Seed:   seed,
		Bounds: mercator.NYCBounds(),
		Hotspots: []Hotspot{
			{Center: ll(-73.9855, 40.7580), Sigma: 400, Weight: 0.35}, // times square
			{Center: ll(-73.9654, 40.7829), Sigma: 900, Weight: 0.20}, // central park
			{Center: ll(-74.0445, 40.6892), Sigma: 300, Weight: 0.15}, // liberty island
			{Center: ll(-73.9969, 40.7061), Sigma: 500, Weight: 0.15}, // brooklyn bridge
			{Center: ll(-73.9772, 40.7527), Sigma: 350, Weight: 0.15}, // grand central
		},
		Uniform:          0.08,
		Start:            start,
		End:              start.AddDate(0, 1, 0),
		DiurnalAmplitude: 0.5,
		AttrSpecs: []AttrSpec{
			{Name: "likes", Mu: 1.5, Sigma: 1.2},
		},
	}
}
