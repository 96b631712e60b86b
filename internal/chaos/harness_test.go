package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/workload"
)

// Config sizes a soak.
type Config struct {
	// VUs is the number of concurrent virtual users.
	VUs int
	// Requests is how many requests each virtual user issues.
	Requests int
	// Seed makes the whole soak deterministic: VU k replays
	// workload.NewMix(Mix, Seed+k), and the cancellation schedule derives
	// from Seed too.
	Seed int64
	// CancelFrac is the fraction of requests issued under an aggressive
	// client deadline (0..2ms), exercising mid-compute cancellation.
	CancelFrac float64
	// Appends, when positive, runs one writer alongside the readers: a
	// single goroutine issuing this many time-ordered ingest batches from
	// workload.NewAppender(Mix, Seed). The ingest endpoint bypasses
	// admission and the batches are generated in time order, so every
	// append must come back 200 — anything else is a violation, because a
	// dropped append makes the post-soak replay-vs-pristine comparison
	// meaningless. ReplayAppends re-issues the identical sequence.
	Appends int
	// Mix names the catalog the generated requests target.
	Mix workload.MixConfig
}

// Report aggregates a soak's outcomes.
type Report struct {
	Total      int
	ByStatus   map[int]int
	ByKind     map[string]int
	Violations []string // capped at maxViolations
	truncated  int
}

const maxViolations = 25

func (r *Report) violate(msg string) {
	if len(r.Violations) >= maxViolations {
		r.truncated++
		return
	}
	r.Violations = append(r.Violations, msg)
}

func (r *Report) merge(o *Report) {
	r.Total += o.Total
	for s, n := range o.ByStatus {
		r.ByStatus[s] += n
	}
	for k, n := range o.ByKind {
		r.ByKind[k] += n
	}
	for _, v := range o.Violations {
		r.violate(v)
	}
	r.truncated += o.truncated
}

// String renders the per-status counts compactly for test logs.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d requests:", r.Total)
	for _, s := range []int{200, 304, 400, 413, 499, 503, 504} {
		if n := r.ByStatus[s]; n > 0 {
			fmt.Fprintf(&b, " %d=%d", s, n)
		}
	}
	for s, n := range r.ByStatus {
		if !AllowedStatuses[s] {
			fmt.Fprintf(&b, " %d=%d(!)", s, n)
		}
	}
	if r.truncated > 0 {
		fmt.Fprintf(&b, " (+%d violations truncated)", r.truncated)
	}
	return b.String()
}

// Soak replays cfg against h from cfg.VUs concurrent virtual users and
// validates every response. It returns once every request has completed —
// a hang shows up as the caller's test timeout, which is the point.
func Soak(ctx context.Context, h http.Handler, cfg Config) *Report {
	reports := make([]*Report, cfg.VUs+1)
	var wg sync.WaitGroup
	for vu := 0; vu < cfg.VUs; vu++ {
		wg.Add(1)
		go func(vu int) {
			defer wg.Done()
			reports[vu] = soakVU(ctx, h, cfg, vu)
		}(vu)
	}
	if cfg.Appends > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[cfg.VUs] = soakWriter(ctx, h, cfg)
		}()
	} else {
		reports[cfg.VUs] = &Report{ByStatus: map[int]int{}, ByKind: map[string]int{}}
	}
	wg.Wait()
	total := &Report{ByStatus: map[int]int{}, ByKind: map[string]int{}}
	for _, r := range reports {
		total.merge(r)
	}
	return total
}

func soakVU(ctx context.Context, h http.Handler, cfg Config, vu int) *Report {
	rep := &Report{ByStatus: map[int]int{}, ByKind: map[string]int{}}
	mix := workload.NewMix(cfg.Mix, cfg.Seed+int64(vu))
	// The cancellation schedule uses its own stream so it never perturbs
	// the request sequence (which Replay must be able to reproduce).
	cancels := rand.New(rand.NewSource(cfg.Seed ^ (int64(vu)+1)*0x9e3779b9))
	for i := 0; i < cfg.Requests && ctx.Err() == nil; i++ {
		hr := mix.Next()
		status, header, body := issue(ctx, h, hr, func() (context.Context, context.CancelFunc) {
			if cfg.CancelFrac > 0 && cancels.Float64() < cfg.CancelFrac {
				return context.WithTimeout(ctx, time.Duration(cancels.Intn(2000))*time.Microsecond)
			}
			return ctx, func() {}
		})
		rep.Total++
		rep.ByStatus[status]++
		rep.ByKind[hr.Kind]++
		if err := ValidateResponse(hr.Method, hr.Path, status, header, body); err != nil {
			rep.violate(fmt.Sprintf("vu%d req%d: %v", vu, i, err))
		}
	}
	return rep
}

// soakWriter is the single ingest population: cfg.Appends time-ordered
// batches, issued with no client deadline (a canceled append would fork
// the soaked server's state away from the replayed pristine one).
func soakWriter(ctx context.Context, h http.Handler, cfg Config) *Report {
	rep := &Report{ByStatus: map[int]int{}, ByKind: map[string]int{}}
	app := workload.NewAppender(cfg.Mix, cfg.Seed)
	for i := 0; i < cfg.Appends && ctx.Err() == nil; i++ {
		hr := app.Next()
		status, header, body := issue(ctx, h, hr, func() (context.Context, context.CancelFunc) {
			return ctx, func() {}
		})
		rep.Total++
		rep.ByStatus[status]++
		rep.ByKind[hr.Kind]++
		if err := ValidateResponse(hr.Method, hr.Path, status, header, body); err != nil {
			rep.violate(fmt.Sprintf("writer req%d: %v", i, err))
		}
		if status != http.StatusOK {
			rep.violate(fmt.Sprintf("writer req%d: append status %d: %s", i, status, body))
		}
	}
	return rep
}

// issue serves one generated request in-process and returns the recorded
// response.
func issue(ctx context.Context, h http.Handler, hr workload.HTTPRequest, reqCtx func() (context.Context, context.CancelFunc)) (int, http.Header, []byte) {
	var rd *strings.Reader
	if hr.Body != "" {
		rd = strings.NewReader(hr.Body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(hr.Method, hr.Path, rd)
	if hr.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rctx, cancel := reqCtx()
	defer cancel()
	req = req.WithContext(rctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	return res.StatusCode, res.Header, rec.Body.Bytes()
}

// Result is one replayed response. Body is nil for the nondeterministic
// observability endpoints (stats, cachestats), whose payloads (counters,
// uptime) legitimately differ between servers; everything else must match
// byte-for-byte.
type Result struct {
	Kind   string
	Path   string
	Status int
	Body   []byte
}

// Replay issues n requests from workload.NewMix(cfg, seed) sequentially
// against h — no concurrency, no cancellation — and records every
// response. Running the same Replay against two servers built over the
// same catalog must yield identical Results; the chaos suite uses that to
// prove a fault schedule never poisons the caches.
func Replay(h http.Handler, cfg workload.MixConfig, seed int64, n int) []Result {
	mix := workload.NewMix(cfg, seed)
	out := make([]Result, 0, n)
	bg := context.Background()
	for i := 0; i < n; i++ {
		hr := mix.Next()
		status, _, body := issue(bg, h, hr, func() (context.Context, context.CancelFunc) {
			return bg, func() {}
		})
		if hr.Kind == "stats" || hr.Kind == "cachestats" {
			body = nil
		}
		out = append(out, Result{Kind: hr.Kind, Path: hr.Path, Status: status, Body: body})
	}
	return out
}

// ReplayAppends re-issues a soak's append sequence — the first n requests
// of workload.NewAppender(cfg, seed) — sequentially against h. Feeding a
// pristine server the same appends a soak's writer issued brings its data
// to the exact state the soaked server reached, after which Replay of the
// read mix against both must be byte-identical: the proof that concurrent
// ingest never poisons a cache or leaves a view half-maintained.
func ReplayAppends(h http.Handler, cfg workload.MixConfig, seed int64, n int) []Result {
	app := workload.NewAppender(cfg, seed)
	out := make([]Result, 0, n)
	bg := context.Background()
	for i := 0; i < n; i++ {
		hr := app.Next()
		status, _, body := issue(bg, h, hr, func() (context.Context, context.CancelFunc) {
			return bg, func() {}
		})
		out = append(out, Result{Kind: hr.Kind, Path: hr.Path, Status: status, Body: body})
	}
	return out
}
