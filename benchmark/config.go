package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/mercator"
	"repro/internal/segment"
	"repro/internal/urbane"
	"repro/internal/workload"
)

// dataSeed is the server's generator seed: the scene is the same in every
// run, the benchmark's -seed moves only the request streams.
const dataSeed = 2009

// serverConfig is the part of urbane-server's flag set the workloads vary.
// Everything else keeps the server's defaults: accurate mode, -resolution
// 1024, 64 MiB query cache, point workers = GOMAXPROCS.
type serverConfig struct {
	Points        int
	Cube          bool
	GeoBlocks     bool
	TimeSnap      int64 // 0 = the server's default (off)
	Segments      bool
	SegCacheBytes int64
	// Procs is the GOMAXPROCS the server subprocess runs with; 0 leaves the
	// Go default (every CPU). It is process environment, not a flag.
	Procs int
}

// flags renders the config as urbane-server arguments.
func (c serverConfig) flags() []string {
	args := []string{"-addr", "127.0.0.1:0", "-points", strconv.Itoa(c.Points),
		"-seed", strconv.Itoa(dataSeed)}
	if c.Cube {
		args = append(args, "-cube")
	}
	if c.GeoBlocks {
		args = append(args, "-geoblocks")
	}
	if c.TimeSnap > 1 {
		args = append(args, "-time-snap", strconv.FormatInt(c.TimeSnap, 10))
	}
	if c.Segments {
		args = append(args, "-segments", "-segment-cache-bytes", strconv.FormatInt(c.SegCacheBytes, 10))
	}
	return args
}

// sceneLayers are the scene's three region layers, as workload.NYC builds
// them, built once per process: they depend only on the data seed, nothing
// mutates them, and the Voronoi construction of 2048 tracts costs as much
// as generating half a million points.
var sceneLayers = sync.OnceValue(func() (l struct{ Neighborhoods, Tracts, Grid *data.RegionSet }) {
	l.Neighborhoods = workload.Neighborhoods(dataSeed + 1)
	l.Tracts = workload.Tracts(dataSeed + 2)
	l.Grid = data.GridRegions("grid64", mercator.NYCBounds(), 64, 64)
	return l
})

// sceneTaxi generates the scene's taxi set, as workload.NYC does.
func sceneTaxi(points int) *data.PointSet {
	return data.Generate(data.NYCTaxiConfig(points, 2009, time.January, dataSeed))
}

// newHandler wires a framework and server in this process the way
// cmd/urbane-server's run() does for the same flags (package main cannot be
// imported). The smoke test proves the two return byte-identical bodies;
// the oracle and the latency budget use it as the in-RAM reference.
// Segment files go under dir; the returned func closes the stores.
func (c serverConfig) newHandler(dir string) (http.Handler, func(), error) {
	scene := sceneLayers()
	sets := []*data.PointSet{
		sceneTaxi(c.Points),
		data.Generate(data.NYC311Config(c.Points/4, 2009, time.January, dataSeed+10)),
		data.Generate(data.NYCPhotosConfig(c.Points/8, 2009, time.January, dataSeed+20)),
	}
	f := urbane.New(core.NewRasterJoin(core.WithDevice(gpu.New()),
		core.WithMode(core.Accurate), core.WithResolution(1024)))
	for _, ps := range sets {
		if err := f.AddPointSet(ps); err != nil {
			return nil, nil, err
		}
	}
	for _, rs := range []*data.RegionSet{scene.Neighborhoods, scene.Tracts, scene.Grid} {
		if err := f.AddRegionSet(rs); err != nil {
			return nil, nil, err
		}
	}
	if c.GeoBlocks {
		f.EnableGeoBlocks(0)
	}
	if c.TimeSnap > 1 {
		f.EnableIncremental(c.TimeSnap, 0, 0)
	}
	var stores []*segment.Store
	closeAll := func() {
		for _, st := range stores {
			st.Close()
		}
	}
	if c.Segments {
		for _, ps := range sets {
			st, err := writeSegment(filepath.Join(dir, ps.Name+".useg"), ps, c.SegCacheBytes)
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			stores = append(stores, st)
			if err := f.AttachSegments(ps.Name, st); err != nil {
				closeAll()
				return nil, nil, err
			}
		}
	}
	if c.Cube {
		if _, err := f.BuildCube("taxi", "neighborhoods", 86400, []string{"fare"}); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	return urbane.NewServer(f, urbane.WithTimeSnap(c.TimeSnap)), closeAll, nil
}

// writeSegment materializes ps as a segment file and opens it.
func writeSegment(path string, ps *data.PointSet, cacheBytes int64) (*segment.Store, error) {
	file, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := segment.Write(file, ps); err != nil {
		file.Close()
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := file.Close(); err != nil {
		return nil, err
	}
	return segment.Open(path, segment.WithCacheBytes(cacheBytes))
}
