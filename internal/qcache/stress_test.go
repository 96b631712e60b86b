package qcache

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStressMixedOps hammers one cache from 64 goroutines with a mix of
// gets, puts, coalesced computes and stats snapshots. Run
// under -race (the Makefile's `stress` target and CI do); the assertions
// here check the byte bound and counter sanity, the race detector checks
// everything else.
func TestStressMixedOps(t *testing.T) {
	const (
		workers  = 64
		opsEach  = 2000
		capacity = 64 << 10
		keySpace = 100
	)
	c := New(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("key-%d", rng.Intn(keySpace))
				switch op := rng.Intn(100); {
				case op < 40:
					c.Get(key)
				case op < 70:
					c.Put(key, make([]byte, rng.Intn(256)))
				case op < 97:
					_, _, _ = c.DoContext(context.Background(), key, func(context.Context) ([]byte, error) {
						return []byte(key), nil
					})
				default:
					if got := c.Stats().Bytes; got > capacity {
						t.Errorf("bytes %d exceeds capacity %d", got, capacity)
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > capacity {
		t.Errorf("final bytes %d exceeds capacity %d", st.Bytes, capacity)
	}
	if st.Hits+st.Misses == 0 {
		t.Error("stress run recorded no lookups")
	}
	// Every live entry must be one of the values ever written for its key:
	// Put stores up to 256 zero bytes, Do stores the key itself.
	for i := 0; i < keySpace; i++ {
		key := fmt.Sprintf("key-%d", i)
		if v, ok := c.Get(key); ok && !bytes.Equal(v, []byte(key)) && len(v) >= 256 {
			t.Errorf("corrupt entry for %s: %d bytes", key, len(v))
		}
	}
}

// TestStressByteBoundUnderConcurrentPuts samples the byte accounting while
// writers churn, proving the capacity bound holds at every observable
// moment, not just at rest.
func TestStressByteBoundUnderConcurrentPuts(t *testing.T) {
	const capacity = 16 << 10
	c := New(capacity)
	stop := make(chan struct{})
	var violations atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if c.Stats().Bytes > capacity {
						violations.Add(1)
					}
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 16; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				c.Put(fmt.Sprintf("k%d", rng.Intn(400)), make([]byte, rng.Intn(512)))
			}
		}(int64(w))
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if n := violations.Load(); n != 0 {
		t.Errorf("observed %d byte-bound violations", n)
	}
}

// TestCoalesceExactlyOneCompute proves the singleflight contract: 100
// concurrent identical requests share exactly one compute. The compute
// function is instrumented and gated so it cannot finish before every
// goroutine has launched; goroutines arriving after it finishes are served
// from the cache (the leader publishes before retiring the flight), so
// the exactly-once property holds regardless of interleaving.
func TestCoalesceExactlyOneCompute(t *testing.T) {
	const clients = 100
	c := New(1 << 20)
	var computes atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	compute := func(context.Context) ([]byte, error) {
		computes.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return []byte("payload"), nil
	}

	results := make(chan struct {
		val     []byte
		outcome Outcome
		err     error
	}, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, o, err := c.DoContext(context.Background(), "hot-key", compute)
			results <- struct {
				val     []byte
				outcome Outcome
				err     error
			}{v, o, err}
		}()
	}
	<-started // the leader is inside compute; nobody can finish yet
	close(release)
	wg.Wait()
	close(results)

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	var misses, coalesced, hits int
	for r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if string(r.val) != "payload" {
			t.Fatalf("diverged result %q", r.val)
		}
		switch r.outcome {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		case Hit:
			hits++
		default:
			t.Fatalf("unexpected outcome %q", r.outcome)
		}
	}
	if misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (the leader)", misses)
	}
	if coalesced+hits != clients-1 {
		t.Errorf("coalesced %d + hits %d != %d", coalesced, hits, clients-1)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("stats.misses = %d, want 1", st.Misses)
	}
}

// TestCoalesceErrorFansOut: when the single compute fails, every waiter
// receives the same error and nothing is cached.
func TestCoalesceErrorFansOut(t *testing.T) {
	const clients = 20
	c := New(1 << 20)
	var computes atomic.Int64
	release := make(chan struct{})
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.DoContext(context.Background(), "bad-key", func(context.Context) ([]byte, error) {
				computes.Add(1)
				<-release
				return nil, fmt.Errorf("compute failed")
			})
			errs <- err
		}()
	}
	// Wait for the leader to be in flight, then let everyone pile up
	// before releasing: a failed leader retires the flight, so a straggler
	// may legitimately start a second compute — but each compute must see
	// the error, and the error must never be cached.
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("expected every caller to see the compute error")
		}
	}
	if _, ok := c.Get("bad-key"); ok {
		t.Fatal("failed compute must not be cached")
	}
}
