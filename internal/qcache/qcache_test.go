package qcache

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache should miss")
	}
	c.Put("a", []byte("alpha"))
	v, ok := c.Get("a")
	if !ok || string(v) != "alpha" {
		t.Fatalf("get a = %q, %v", v, ok)
	}
	// Overwrite replaces.
	c.Put("a", []byte("beta"))
	if v, _ := c.Get("a"); string(v) != "beta" {
		t.Fatalf("overwrite: got %q", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// Each entry costs entryOverhead + len(key) + len(val) = 160 + 1 + 39
	// = 200.
	c := New(3 * 200)
	val := make([]byte, 39)
	c.Put("a", val)
	c.Put("b", val)
	c.Put("c", val)
	if _, ok := c.Get("a"); !ok { // touch a so b becomes LRU
		t.Fatal("a should be cached")
	}
	c.Put("d", val) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should have survived", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestOversizedEntryNotCached(t *testing.T) {
	c := New(1024)
	c.Put("big", make([]byte, 4096))
	if _, ok := c.Get("big"); ok {
		t.Fatal("entry larger than the whole budget must not be cached")
	}
	if got := c.Stats().Bytes; got != 0 {
		t.Errorf("bytes = %d, want 0", got)
	}
	// And it must not have evicted anything to try.
	c.Put("small", []byte("x"))
	c.Put("big", make([]byte, 4096))
	if _, ok := c.Get("small"); !ok {
		t.Error("oversized put must not evict resident entries")
	}
}

// TestLargeEntryUsesWholeBudget: an entry is refused only when it exceeds
// the cache's whole budget, so a 128 KiB body fits a 1 MiB cache.
func TestLargeEntryUsesWholeBudget(t *testing.T) {
	c := New(1 << 20)
	c.Put("big", make([]byte, 128<<10))
	if _, ok := c.Get("big"); !ok {
		t.Fatal("a 128 KiB entry in a 1 MiB cache was not stored")
	}
}

func TestByteBoundHonored(t *testing.T) {
	const capacity = 4096
	c := New(capacity)
	for i := 0; i < 500; i++ {
		c.Put(fmt.Sprintf("key-%d", i), make([]byte, i%200))
		if got := c.Stats().Bytes; got > capacity {
			t.Fatalf("after put %d: bytes = %d exceeds capacity %d", i, got, capacity)
		}
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Error("expected evictions under byte pressure")
	}
}

func TestDoComputesAndCaches(t *testing.T) {
	c := New(1 << 20)
	calls := 0
	compute := func(context.Context) ([]byte, error) { calls++; return []byte("v"), nil }
	v, outcome, err := c.DoContext(context.Background(), "k", compute)
	if err != nil || string(v) != "v" || outcome != Miss {
		t.Fatalf("first Do = %q %v %v", v, outcome, err)
	}
	v, outcome, err = c.DoContext(context.Background(), "k", compute)
	if err != nil || string(v) != "v" || outcome != Hit {
		t.Fatalf("second Do = %q %v %v", v, outcome, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times", calls)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	calls := 0
	_, outcome, err := c.DoContext(context.Background(), "k", func(context.Context) ([]byte, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) || outcome != Miss {
		t.Fatalf("Do = %v %v", outcome, err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("errors must not be cached")
	}
	if _, _, err := c.DoContext(context.Background(), "k", func(context.Context) ([]byte, error) { calls++; return []byte("ok"), nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (error retried)", calls)
	}
}

func TestNilCacheBypasses(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache should miss")
	}
	c.Put("k", []byte("v")) // must not panic
	calls := 0
	for i := 0; i < 2; i++ {
		v, outcome, err := c.DoContext(context.Background(), "k", func(context.Context) ([]byte, error) { calls++; return []byte("v"), nil })
		if err != nil || string(v) != "v" || outcome != Bypass {
			t.Fatalf("nil Do = %q %v %v", v, outcome, err)
		}
	}
	if calls != 2 {
		t.Errorf("nil cache must compute every time, got %d calls", calls)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil stats = %+v", st)
	}
}
