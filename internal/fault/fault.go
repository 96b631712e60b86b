// Package fault is the deterministic fault-injection layer behind the
// chaos/soak suite (internal/chaos): a seeded registry of injection rules
// keyed by site name, consulted by hook points threaded through the query
// path — the HTTP decoders (`server.decode`), the query-result cache's
// compute flights (`qcache.compute`), the join entry (`core.join`), and the
// point pass (`core.pointpass`).
//
// Three fault kinds exist: Latency (a context-aware sleep), Error (an
// injected error), and Cancel (the site behaves as if its context had been
// canceled mid-work). A rule fires probabilistically, but deterministically:
// each site draws from its own PRNG seeded by (registry seed, site name), so
// two registries built with the same seed produce the identical decision
// sequence at every site — the precondition the chaos suite's replay
// assertions rest on.
//
// The registry rides the request context (NewContext / Inject), exactly like
// internal/trace, so the deep layers need no new plumbing. Everything is
// nil-safe, and when no registry was ever created in the process the hook is
// a single atomic load. Only code arms a registry, through
// urbane.WithFaults; urbane-server has no switch for it, so production
// servers pay that one load and nothing else.
package fault

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an injected fault.
type Kind int

const (
	// Latency delays the site by the rule's Delay (context-aware: a
	// canceled context cuts the sleep short and surfaces ctx.Err()).
	Latency Kind = iota
	// Error makes the site return the rule's Err (ErrInjected when unset).
	Error
	// Cancel makes the site return context.Canceled, as if the request had
	// been canceled mid-work.
	Cancel
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Latency:
		return "latency"
	case Error:
		return "error"
	case Cancel:
		return "cancel"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ErrInjected is the default error an Error rule returns.
var ErrInjected = errors.New("fault: injected error")

// Rule arms one site: each call at the site fires the fault with
// probability Prob.
type Rule struct {
	Prob  float64       // per-call fire probability in [0, 1]
	Kind  Kind          // what firing does
	Delay time.Duration // Latency: how long to sleep
	Err   error         // Error: what to return (nil = ErrInjected)
}

// site is one armed site: its rule plus a private PRNG so decision
// sequences are per-site deterministic regardless of what other sites do.
// The PRNG's seed mixes the registry seed with the site name; Schedule
// replays it.
type site struct {
	rule  Rule
	seed  int64
	mu    sync.Mutex
	rng   *rand.Rand
	calls uint64
	fired uint64
}

// Registry holds the armed sites. Safe for concurrent use; the zero value
// is not useful — construct with New. A nil *Registry injects nothing.
type Registry struct {
	seed int64

	mu    sync.RWMutex
	sites map[string]*site
}

// armed is true once any registry has been created in this process; the
// package-level Inject hook checks it first so un-armed binaries pay one
// atomic load per hook point and nothing else.
var armed atomic.Bool

// New returns an empty registry. All schedules derive from seed: the same
// seed and the same per-site call sequence yield the same decisions.
func New(seed int64) *Registry {
	armed.Store(true)
	return &Registry{seed: seed, sites: make(map[string]*site)}
}

// Set arms (or re-arms, resetting its PRNG) the named site. Prob is clamped
// to [0, 1].
func (r *Registry) Set(name string, rule Rule) {
	if r == nil {
		return
	}
	if rule.Prob < 0 {
		rule.Prob = 0
	}
	if rule.Prob > 1 {
		rule.Prob = 1
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	seed := r.seed ^ int64(h.Sum64())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sites[name] = &site{rule: rule, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Clear disarms every site: subsequent Inject calls are no-ops. The chaos
// suite uses it to turn a soaked server pristine before the replay phase.
func (r *Registry) Clear() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sites = make(map[string]*site)
}

// Counts reports, per armed site, how many hook calls were seen and how
// many fired.
func (r *Registry) Counts() map[string][2]uint64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string][2]uint64, len(r.sites))
	for n, s := range r.sites {
		s.mu.Lock()
		out[n] = [2]uint64{s.calls, s.fired}
		s.mu.Unlock()
	}
	return out
}

// decide advances the named site's schedule one step and reports whether
// this call fires, and under which rule.
func (r *Registry) decide(name string) (Rule, bool) {
	if r == nil {
		return Rule{}, false
	}
	r.mu.RLock()
	s := r.sites[name]
	r.mu.RUnlock()
	if s == nil {
		return Rule{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	fire := s.rng.Float64() < s.rule.Prob
	if fire {
		s.fired++
	}
	return s.rule, fire
}

// Schedule previews the first n fire/skip decisions the named site would
// make from a fresh registry with the same seed, without consuming this
// registry's state. Tests use it to assert determinism.
func (r *Registry) Schedule(name string, n int) []bool {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	s := r.sites[name]
	r.mu.RUnlock()
	if s == nil {
		return make([]bool, n)
	}
	s.mu.Lock()
	prob := s.rule.Prob
	s.mu.Unlock()
	rng := rand.New(rand.NewSource(s.seed))
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Float64() < prob
	}
	return out
}

// Inject is the hook sites call: it advances the site's schedule and, when
// the rule fires, applies the fault — sleeping, returning an error, or
// returning context.Canceled. A nil registry, unknown site, or skip
// decision returns nil.
func (r *Registry) Inject(ctx context.Context, name string) error {
	rule, fire := r.decide(name)
	if !fire {
		return nil
	}
	switch rule.Kind {
	case Latency:
		if rule.Delay <= 0 {
			return nil
		}
		t := time.NewTimer(rule.Delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case Error:
		if rule.Err != nil {
			return rule.Err
		}
		return ErrInjected
	case Cancel:
		return context.Canceled
	default:
		return nil
	}
}

// ctxKey is the context key type for registries; unexported so only this
// package can attach one.
type ctxKey struct{}

// NewContext returns a context carrying the registry; request middleware
// attaches it so every downstream hook sees the same schedule.
func NewContext(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext recovers the registry, or nil when the context carries none.
func FromContext(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Registry)
	return r
}

// Inject is the package-level hook the instrumented layers call:
//
//	if err := fault.Inject(ctx, "core.pointpass"); err != nil { return err }
//
// When no registry was ever created in the process this is one atomic load;
// when the context carries no registry it is additionally one context
// lookup. Faults therefore cost nothing unless a test armed them.
func Inject(ctx context.Context, name string) error {
	if !armed.Load() {
		return nil
	}
	return FromContext(ctx).Inject(ctx, name)
}
