package attrserver

import (
	"sync"
	"testing"
	"time"

	"fairco2/internal/metrics"
)

// fakeClock is a mutable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestCache(totalBytes int64, shards int, clock *fakeClock) (*resultCache, *Instruments) {
	inst := NewInstruments(metrics.NewRegistry())
	c := newResultCache(totalBytes, shards, clock.Now, inst)
	return &c, inst
}

// testKey is a cache key that differs from another test key by name only.
func testKey(name string) cacheKey { return cacheKey{method: name} }

// periodKey is the fair-co2 cache key of the one-slice period [i, i+1).
func periodKey(i int) cacheKey { return cacheKey{method: MethodFairCO2, start: i, end: i + 1} }

func TestCacheHitMissAndTTLExpiry(t *testing.T) {
	clock := newFakeClock()
	c, inst := newTestCache(1<<20, 4, clock)

	if _, ok := c.get(testKey("k")); ok {
		t.Fatal("empty cache returned a value")
	}
	c.put(testKey("k"), "v", 100, time.Minute)
	v, ok := c.get(testKey("k"))
	if !ok || v.(string) != "v" {
		t.Fatalf("get after put = (%v, %v), want (v, true)", v, ok)
	}
	clock.Advance(59 * time.Second)
	if _, ok := c.get(testKey("k")); !ok {
		t.Fatal("entry expired before its TTL")
	}
	clock.Advance(2 * time.Second)
	if _, ok := c.get(testKey("k")); ok {
		t.Fatal("entry survived past its TTL")
	}
	if got := inst.CacheHits.Value(); got != 2 {
		t.Errorf("hits = %v, want 2", got)
	}
	if got := inst.CacheMisses.Value(); got != 2 {
		t.Errorf("misses = %v, want 2", got)
	}
	// The expired entry was dropped and counted as an eviction.
	if got := inst.CacheEvictions.Value(); got != 1 {
		t.Errorf("evictions = %v, want 1", got)
	}
	if entries, bytes := c.stats(); entries != 0 || bytes != 0 {
		t.Errorf("stats after expiry = (%d, %d), want (0, 0)", entries, bytes)
	}
}

func TestCacheLRUEvictionUnderByteBudget(t *testing.T) {
	clock := newFakeClock()
	// One shard with a 300-byte budget: three 100-byte entries fit, the
	// fourth evicts the least recently used.
	c, inst := newTestCache(300, 1, clock)
	for _, k := range []string{"a", "b", "c"} {
		c.put(testKey(k), k, 100, time.Hour)
	}
	// Touch "a" so "b" becomes the LRU victim.
	if _, ok := c.get(testKey("a")); !ok {
		t.Fatal("a missing before eviction")
	}
	c.put(testKey("d"), "d", 100, time.Hour)

	if _, ok := c.get(testKey("b")); ok {
		t.Error("LRU victim b survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.get(testKey(k)); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if got := inst.CacheEvictions.Value(); got != 1 {
		t.Errorf("evictions = %v, want 1", got)
	}
	if entries, bytes := c.stats(); entries != 3 || bytes != 300 {
		t.Errorf("stats = (%d, %d), want (3, 300)", entries, bytes)
	}
}

func TestCacheReplaceAndOversizedAndZeroTTL(t *testing.T) {
	clock := newFakeClock()
	c, _ := newTestCache(300, 1, clock)

	c.put(testKey("k"), "old", 100, time.Hour)
	c.put(testKey("k"), "new", 200, time.Hour)
	v, ok := c.get(testKey("k"))
	if !ok || v.(string) != "new" {
		t.Fatalf("replaced entry = (%v, %v), want (new, true)", v, ok)
	}
	if entries, bytes := c.stats(); entries != 1 || bytes != 200 {
		t.Errorf("stats after replace = (%d, %d), want (1, 200)", entries, bytes)
	}

	// An entry larger than a whole shard is not cached (and evicts nothing).
	c.put(testKey("huge"), "x", 301, time.Hour)
	if _, ok := c.get(testKey("huge")); ok {
		t.Error("oversized entry was cached")
	}
	if _, ok := c.get(testKey("k")); !ok {
		t.Error("oversized put evicted an unrelated entry")
	}

	// Non-positive TTLs mean "do not cache".
	c.put(testKey("transient"), "x", 10, 0)
	if _, ok := c.get(testKey("transient")); ok {
		t.Error("zero-TTL entry was cached")
	}
}

func TestCacheShardRoundingAndSpread(t *testing.T) {
	clock := newFakeClock()
	c, _ := newTestCache(1<<20, 5, clock) // rounds up to 8 shards
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(c.shards))
	}
	// Many keys must not all land in one shard.
	for i := 0; i < 256; i++ {
		c.put(periodKey(i), i, 64, time.Hour)
	}
	used := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		if len(sh.items) > 0 {
			used++
		}
		sh.mu.RUnlock()
	}
	if used < 2 {
		t.Errorf("256 keys landed in %d shard(s); FNV routing is broken", used)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	clock := newFakeClock()
	c, _ := newTestCache(4<<10, 4, clock)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := periodKey(i % 16)
				if i%3 == 0 {
					c.put(key, i, 64, time.Hour)
				} else {
					c.get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	entries, bytes := c.stats()
	if entries < 0 || bytes < 0 || bytes > 4<<10 {
		t.Errorf("stats after concurrent churn = (%d, %d): accounting drifted", entries, bytes)
	}
}

// TestCacheConcurrentFirstPuts: a generation's cache starts with no shard
// maps, and each shard makes its map on its first put. Many goroutines
// making those first puts at once, into one shard and across shards,
// must neither race nor lose an entry.
func TestCacheConcurrentFirstPuts(t *testing.T) {
	for _, shards := range []int{1, 16} {
		c, _ := newTestCache(1<<20, shards, newFakeClock())
		const goroutines, keys = 16, 64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := g; i < keys; i += goroutines {
					c.put(periodKey(i), i, 64, time.Hour)
					if v, ok := c.peek(periodKey(i)); !ok || v.(int) != i {
						t.Errorf("shards=%d: key %d read back (%v, %v) right after its put", shards, i, v, ok)
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if entries, bytes := c.stats(); entries != keys || bytes != keys*64 {
			t.Errorf("shards=%d: stats = (%d, %d), want (%d, %d)", shards, entries, bytes, keys, keys*64)
		}
	}
}
