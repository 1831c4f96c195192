package attrserver

import (
	"container/list"
	"sync"
	"time"
)

// cacheKey identifies a result within one schedule generation: the
// query's method and period. The tenant is deliberately excluded — one
// cached vector prices every tenant in the window — and so is the
// configuration, which the generation owning the cache fixes.
type cacheKey struct {
	method     string
	start, end int
}

// resultCache is a sharded in-memory cache for computed attribution
// results. Each shard owns an independent RW lock, an LRU list and a slice
// of the total byte budget, so concurrent queries for different keys never
// contend on one mutex. Entries expire by TTL (checked lazily on lookup)
// and are evicted least-recently-used when a shard exceeds its budget.
//
// Every schedule generation owns one, so building a cache must stay cheap:
// the shards are one value slice, and a shard makes its map on its first
// put.
type resultCache struct {
	shards []cacheShard
	mask   uint64
	budget int64 // per shard
	now    func() time.Time
	inst   *Instruments
}

type cacheShard struct {
	mu    sync.RWMutex
	items map[cacheKey]*list.Element // nil until the first put
	lru   list.List                  // front = most recently used
	bytes int64
}

type cacheEntry struct {
	key     cacheKey
	val     any
	size    int64
	expires time.Time
}

// newResultCache builds a cache with totalBytes spread evenly across
// shards (rounded up to a power of two so key routing is a mask).
func newResultCache(totalBytes int64, shards int, now func() time.Time, inst *Instruments) resultCache {
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := totalBytes / int64(n)
	if perShard < 1 {
		perShard = 1
	}
	return resultCache{
		shards: make([]cacheShard, n),
		mask:   uint64(n - 1),
		budget: perShard,
		now:    now,
		inst:   inst,
	}
}

// shardOf routes a key to its shard by FNV-1a over the method's bytes and
// the period bounds.
func (c *resultCache) shardOf(key cacheKey) *cacheShard {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	h := offset
	for i := 0; i < len(key.method); i++ {
		h ^= uint64(key.method[i])
		h *= prime
	}
	h ^= uint64(key.start)
	h *= prime
	h ^= uint64(key.end)
	h *= prime
	return &c.shards[h&c.mask]
}

// get returns the cached value for key, counting a hit or a miss. An
// expired entry is removed (counted as an eviction) and reported as a miss.
func (c *resultCache) get(key cacheKey) (any, bool) {
	sh := c.shardOf(key)
	now := c.now()

	sh.mu.RLock()
	el, ok := sh.items[key]
	var ent *cacheEntry
	if ok {
		ent = el.Value.(*cacheEntry)
		ok = ent.expires.After(now)
	}
	sh.mu.RUnlock()

	if ent == nil {
		c.inst.CacheMisses.Inc()
		return nil, false
	}
	// Promotion and expiry both mutate the shard; re-check under the write
	// lock since the entry may have been evicted in between.
	sh.mu.Lock()
	el, present := sh.items[key]
	if present && el.Value.(*cacheEntry) == ent {
		if ok {
			sh.lru.MoveToFront(el)
		} else {
			sh.remove(el)
			c.inst.CacheEvictions.Inc()
		}
	}
	sh.mu.Unlock()

	if !ok {
		c.inst.CacheMisses.Inc()
		return nil, false
	}
	c.inst.CacheHits.Inc()
	return ent.val, true
}

// peek returns the unexpired value cached under key without counting a
// hit or a miss and without promoting it, for a query that already
// counted its miss.
func (c *resultCache) peek(key cacheKey) (any, bool) {
	sh := c.shardOf(key)
	now := c.now()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if el, ok := sh.items[key]; ok {
		if ent := el.Value.(*cacheEntry); ent.expires.After(now) {
			return ent.val, true
		}
	}
	return nil, false
}

// put inserts (or replaces) a value with the given footprint and TTL, then
// evicts from the LRU tail until the shard fits its budget. Entries larger
// than a whole shard, and non-positive TTLs, are not cached.
func (c *resultCache) put(key cacheKey, val any, size int64, ttl time.Duration) {
	if ttl <= 0 || size > c.budget {
		return
	}
	sh := c.shardOf(key)
	ent := &cacheEntry{key: key, val: val, size: size, expires: c.now().Add(ttl)}

	sh.mu.Lock()
	if sh.items == nil {
		sh.items = make(map[cacheKey]*list.Element)
	}
	if el, ok := sh.items[key]; ok {
		sh.remove(el)
	}
	sh.items[key] = sh.lru.PushFront(ent)
	sh.bytes += size
	evicted := 0
	for sh.bytes > c.budget {
		back := sh.lru.Back()
		if back == nil || back.Value.(*cacheEntry) == ent {
			break
		}
		sh.remove(back)
		evicted++
	}
	sh.mu.Unlock()

	c.inst.CacheEvictions.Add(float64(evicted))
}

// remove drops an element from the shard (the caller holds the write lock).
func (sh *cacheShard) remove(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	delete(sh.items, ent.key)
	sh.lru.Remove(el)
	sh.bytes -= ent.size
}

// stats reports live entry and byte counts across all shards.
func (c *resultCache) stats() (entries int, bytes int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		entries += len(sh.items)
		bytes += sh.bytes
		sh.mu.RUnlock()
	}
	return entries, bytes
}
