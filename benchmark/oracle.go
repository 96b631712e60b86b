package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/index"
)

// sumTolerance is the relative disagreement allowed between the server's
// compensated sums and the oracle's: both sides are Kahan-compensated (or
// folds of compensated partials), so they differ only in association
// order — a few ulps per merge, far below this.
const sumTolerance = 1e-9

// oracle re-answers sampled requests with the exact brute-force join of
// internal/index over a scene generated in this process from the same
// data seed the server used.
type oracle struct {
	taxi  *data.PointSet
	brute index.BruteForce
}

func newOracle(points int) *oracle { return &oracle{taxi: sceneTaxi(points)} }

type wireFilter struct {
	Attr     string
	Min, Max float64
}

type mapviewWire struct {
	Dataset, Layer, Agg, Attr string
	Filters                   []wireFilter
	Time                      *struct{ Start, End int64 }
}

func parseAgg(s string) (core.Agg, error) {
	switch strings.ToLower(s) {
	case "count":
		return core.Count, nil
	case "sum":
		return core.Sum, nil
	case "avg":
		return core.Avg, nil
	}
	return 0, fmt.Errorf("oracle: aggregate %q", s)
}

// near reports whether got matches want: exactly for counts, within
// sumTolerance for sums and averages.
func near(agg core.Agg, got, want float64) bool {
	if agg == core.Count {
		return got == want
	}
	return got == want || math.Abs(got-want) <= sumTolerance*math.Max(math.Abs(got), math.Abs(want))
}

// checkMapview verifies one taxi mapview reply region by region: counts
// exactly, sums and averages within sumTolerance.
func (o *oracle) checkMapview(reqBody string, reply []byte) error {
	var w mapviewWire
	if err := json.Unmarshal([]byte(reqBody), &w); err != nil {
		return err
	}
	if w.Dataset != "taxi" {
		return fmt.Errorf("oracle: only taxi is generated, got %q", w.Dataset)
	}
	var rs *data.RegionSet
	scene := sceneLayers()
	for _, cand := range []*data.RegionSet{scene.Neighborhoods, scene.Tracts, scene.Grid} {
		if cand.Name == w.Layer {
			rs = cand
		}
	}
	if rs == nil {
		return fmt.Errorf("oracle: unknown layer %q", w.Layer)
	}
	agg, err := parseAgg(w.Agg)
	if err != nil {
		return err
	}
	req := core.Request{Points: o.taxi, Regions: rs, Agg: agg, Attr: w.Attr}
	for _, f := range w.Filters {
		req.Filters = append(req.Filters, core.Filter{Attr: f.Attr, Min: f.Min, Max: f.Max})
	}
	if w.Time != nil {
		req.Time = &core.TimeFilter{Start: w.Time.Start, End: w.Time.End}
	}
	want, err := o.brute.Join(req)
	if err != nil {
		return err
	}
	var got struct {
		Values []struct {
			ID    int
			Value float64
		}
	}
	if err := json.Unmarshal(reply, &got); err != nil {
		return err
	}
	if len(got.Values) != len(want.Stats) {
		return fmt.Errorf("%d regions in reply, oracle has %d", len(got.Values), len(want.Stats))
	}
	for k, v := range got.Values {
		exp := want.Value(k, agg)
		if !near(agg, v.Value, exp) {
			return fmt.Errorf("%s region %d: server %v, brute force %v (%s)", w.Layer, v.ID, v.Value, exp, reqBody)
		}
	}
	return nil
}

// checkPolygon verifies one unfiltered taxi polygon reply against the
// appended state it was computed on: brute force over the generated points
// plus the points this run had ingested before the request was sent.
func (o *oracle) checkPolygon(reqBody string, reply []byte, appended []appendedPoint) error {
	var w struct {
		Ring      [][2]float64
		Agg, Attr string
	}
	if err := json.Unmarshal([]byte(reqBody), &w); err != nil {
		return err
	}
	agg, err := parseAgg(w.Agg)
	if err != nil {
		return err
	}
	ring := make(geom.Ring, len(w.Ring))
	for i, v := range w.Ring {
		ring[i] = geom.Point{X: v[0], Y: v[1]}
	}
	poly := geom.NewPolygon(ring)
	rs := &data.RegionSet{Name: "polygon", Regions: []data.Region{{Name: "polygon", Poly: poly}}}
	res, err := o.brute.Join(core.Request{Points: o.taxi, Regions: rs, Agg: core.Sum, Attr: "fare"})
	if err != nil {
		return err
	}
	st := res.Stats[0]
	for _, p := range appended {
		if poly.Contains(geom.Point{X: p.X, Y: p.Y}) {
			st.Observe(p.Fare)
		}
	}
	var got struct {
		Count int64
		Value float64
	}
	if err := json.Unmarshal(reply, &got); err != nil {
		return err
	}
	if got.Count != st.Count {
		return fmt.Errorf("polygon count: server %d, oracle %d with %d appended points", got.Count, st.Count, len(appended))
	}
	if exp := st.Value(agg); !near(agg, got.Value, exp) {
		return fmt.Errorf("polygon %s: server %v, oracle %v", w.Agg, got.Value, exp)
	}
	return nil
}

// replayInRAM answers the kept requests with an in-process, in-RAM server
// of the default configuration and requires byte-identical bodies: the
// storage layer's contract is that segment-backed execution changes no
// byte of any response.
func replayInRAM(points int, kept []*sample) error {
	h, _, err := serverConfig{Points: points}.newHandler("") // no segments: nothing on disk, nothing to close
	if err != nil {
		return err
	}
	for _, s := range kept {
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(s.Req.Method, s.Req.Path, strings.NewReader(s.Req.Body))
		h.ServeHTTP(rec, hr)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-RAM reference answered %d to %s", rec.Code, s.Req.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), s.Body) {
			return fmt.Errorf("segment-backed body differs from in-RAM body for %s", s.Req.Body)
		}
	}
	return nil
}
