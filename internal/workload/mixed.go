package workload

import "fmt"

// Mixed is a deterministic two-dataset interleave: read queries against
// dataset A and dataset B alternating with appends to each, in a fixed
// six-step cycle (read A, read B, append A, read A, read B, append B).
// It exists to exercise per-dataset epoch isolation: an append to A must
// produce fresh response-cache keys for A's queries while B's stay warm.
// Two Mixed streams built with the same config and seed yield the
// identical request sequence. Not safe for concurrent use.
type Mixed struct {
	mixes [2]*Mix
	apps  [2]*Appender
	step  int
}

// NewMixed returns a deterministic interleaved stream over the first two
// data sets of cfg (cfg must name at least two; a shorter list panics —
// the caller controls the config). Each dataset's read and append
// sub-streams are themselves deterministic and single-dataset, so a test
// can attribute every request to its dataset by step position alone.
func NewMixed(cfg MixConfig, seed int64) *Mixed {
	if len(cfg.Datasets) < 2 {
		panic(fmt.Sprintf("workload: Mixed needs two datasets, got %d", len(cfg.Datasets)))
	}
	m := &Mixed{}
	for i := 0; i < 2; i++ {
		sub := cfg
		sub.Datasets = []string{cfg.Datasets[i]}
		m.mixes[i] = NewMix(sub, seed+int64(i))
		m.apps[i] = NewAppender(sub, seed+int64(10+i))
	}
	return m
}

// Dataset reports which of the two datasets the request at step would
// target (0 or 1).
func (m *Mixed) Dataset(step int) int {
	switch step % 6 {
	case 0, 2, 3:
		return 0
	default:
		return 1
	}
}

// IsAppend reports whether the request at step is an ingest write.
func (m *Mixed) IsAppend(step int) bool {
	s := step % 6
	return s == 2 || s == 5
}

// Next generates the following request of the interleave. Reads are drawn
// from the per-dataset Mix (mapview, query, tiles, ...); writes from the
// per-dataset Appender. The Kind is prefixed "mixed." with the dataset
// name so per-kind reports separate the two sets' traffic.
func (m *Mixed) Next() HTTPRequest {
	step := m.step
	m.step++
	ds := m.Dataset(step)
	var req HTTPRequest
	if m.IsAppend(step) {
		req = m.apps[ds].Next()
	} else {
		req = m.mixes[ds].Next()
	}
	req.Kind = fmt.Sprintf("mixed.%s.%s", m.mixes[ds].cfg.Datasets[0], req.Kind)
	return req
}
