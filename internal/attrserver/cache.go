package attrserver

import (
	"container/list"
	"sync"
	"time"
)

// resultCache is a sharded in-memory cache for computed attribution
// results. Each shard owns an independent RW lock, an LRU list and a slice
// of the total byte budget, so concurrent queries for different keys never
// contend on one mutex. Entries expire by TTL (checked lazily on lookup)
// and are evicted least-recently-used when a shard exceeds its budget.
type resultCache struct {
	shards []*cacheShard
	mask   uint64
	now    func() time.Time
	inst   *Instruments
}

type cacheShard struct {
	mu     sync.RWMutex
	items  map[string]*list.Element
	lru    *list.List // front = most recently used
	bytes  int64
	budget int64
}

type cacheEntry struct {
	key     string
	val     any
	size    int64
	expires time.Time
}

// newResultCache builds a cache with totalBytes spread evenly across
// shards (rounded up to a power of two so key routing is a mask).
func newResultCache(totalBytes int64, shards int, now func() time.Time, inst *Instruments) *resultCache {
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := totalBytes / int64(n)
	if perShard < 1 {
		perShard = 1
	}
	c := &resultCache{
		shards: make([]*cacheShard, n),
		mask:   uint64(n - 1),
		now:    now,
		inst:   inst,
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			items:  map[string]*list.Element{},
			lru:    list.New(),
			budget: perShard,
		}
	}
	return c
}

// shardOf routes a key to its shard by FNV-1a.
func (c *resultCache) shardOf(key string) *cacheShard {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	h := offset
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return c.shards[h&c.mask]
}

// get returns the cached value for key, counting a hit or a miss. An
// expired entry is removed (counted as an eviction) and reported as a miss.
func (c *resultCache) get(key string) (any, bool) {
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
func (c *resultCache) peek(key string) (any, bool) {
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
func (c *resultCache) put(key string, val any, size int64, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	sh := c.shardOf(key)
	if size > sh.budget {
		return
	}
	ent := &cacheEntry{key: key, val: val, size: size, expires: c.now().Add(ttl)}

	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		sh.remove(el)
	}
	sh.items[key] = sh.lru.PushFront(ent)
	sh.bytes += size
	evicted := 0
	for sh.bytes > sh.budget {
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
	for _, sh := range c.shards {
		sh.mu.RLock()
		entries += len(sh.items)
		bytes += sh.bytes
		sh.mu.RUnlock()
	}
	return entries, bytes
}
