package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one traced interval. Spans of one request share the request's id
// (workload/client/seq); Parent names the span that caused this one within
// that id ("" for the root). Times are nanoseconds since the recorder was
// created.
type span struct {
	ID       string           `json:"id"`
	Name     string           `json:"name"`
	Parent   string           `json:"parent,omitempty"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// recorder keeps spans in memory until the run ends; nothing is written
// while the clock is running.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(s ...span) {
	r.mu.Lock()
	r.spans = append(r.spans, s...)
	r.mu.Unlock()
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// time records fn as a span under the given root id and returns its
// duration; the layer tier wraps every measured call in it.
func (r *recorder) time(id, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(span{ID: id, Name: name, Parent: parent, StartNs: r.since(start), EndNs: r.since(end)})
	return end.Sub(start)
}

// stage is one timed entry of an X-Urbane-Trace header.
type stage struct {
	Name     string
	Ms       float64
	Counters map[string]int64
}

// parseTrace splits an X-Urbane-Trace header into its timed stages and its
// trace-wide counters. The server renders durations with a decimal point
// ("execute=12.34", optionally followed by "(k=v,...)") and counters as
// bare integers ("span_cache_hits=1"); "total" is the handler's own clock
// and is dropped in favour of X-Urbane-Elapsed-Ms.
func parseTrace(h string) (stages []stage, counters map[string]int64) {
	counters = map[string]int64{}
	for _, part := range strings.Split(h, ";") {
		name, val, ok := strings.Cut(part, "=")
		if !ok || name == "total" {
			continue
		}
		var sub map[string]int64
		if open := strings.IndexByte(val, '('); open >= 0 && strings.HasSuffix(val, ")") {
			sub = map[string]int64{}
			for _, kv := range strings.Split(val[open+1:len(val)-1], ",") {
				if k, v, ok := strings.Cut(kv, "="); ok {
					sub[k], _ = strconv.ParseInt(v, 10, 64)
				}
			}
			val = val[:open]
		}
		if strings.Contains(val, ".") {
			ms, err := strconv.ParseFloat(val, 64)
			if err == nil {
				stages = append(stages, stage{Name: name, Ms: ms, Counters: sub})
			}
			continue
		}
		if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			counters[name] = n
		}
	}
	return stages, counters
}

// requestSpans turns one sample into its span tree: the request (client
// send → body read), a "server" child as long as X-Urbane-Elapsed-Ms, and
// the header's stages beneath it. Engine stages (names with a dot) nest
// under "execute" when the endpoint reports one. The header carries
// durations, not offsets, so children are laid end to end from their
// parent's start; self times, which is what the budget reads, do not
// depend on the placement.
func requestSpans(r *recorder, workload string, s *sample) []span {
	id := fmt.Sprintf("%s/%d/%d", workload, s.Client, s.Seq)
	start := r.since(s.Start)
	out := []span{{ID: id, Name: s.Req.Family, StartNs: start, EndNs: r.since(s.End)}}
	stages, counters := parseTrace(s.Trace)
	out = append(out, span{ID: id, Name: "server", Parent: s.Req.Family,
		StartNs: start, EndNs: start + int64(s.ComputeMs*1e6), Counters: counters})
	hasExecute := false
	for _, st := range stages {
		hasExecute = hasExecute || st.Name == "execute"
	}
	cursor := map[string]int64{"server": start, "execute": start}
	for _, st := range stages {
		parent := "server"
		if hasExecute && strings.Contains(st.Name, ".") {
			parent = "execute"
		}
		at := cursor[parent]
		end := at + int64(st.Ms*1e6)
		out = append(out, span{ID: id, Name: st.Name, Parent: parent, StartNs: at, EndNs: end, Counters: st.Counters})
		cursor[parent] = end
		if st.Name == "execute" {
			cursor["execute"] = at
		}
	}
	return out
}

// selfTimes sums, per span name, duration minus the children's durations.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct{ id, name string }
	child := map[key]int64{}
	for _, s := range spans {
		if s.Parent != "" {
			child[key{s.ID, s.Parent}] += s.EndNs - s.StartNs
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := s.EndNs - s.StartNs - child[key{s.ID, s.Name}]
		if self < 0 {
			self = 0
		}
		out[s.Name] += time.Duration(self)
	}
	return out
}

// write stores the spans as JSON lines, one span per line, ordered by
// start time.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
