package server

import (
	"container/list"
	"sync"
)

// CachedResult is one finished job as stored in the result cache: the
// headline outcome plus the full schema-2 manifest, kept as the exact
// bytes served by GET /v1/results/{key} so repeated hits are
// byte-identical by construction.
type CachedResult struct {
	// Key is the content address the result is stored under.
	Key string `json:"key"`
	// Cycles is the headline cycle count (partial on failed runs).
	Cycles int64 `json:"cycles"`
	// Err is the simulation outcome error, empty on success. Failures
	// are deterministic (watchdog aborts, hang classifications,
	// verification mismatches) and therefore as cacheable as successes.
	Err string `json:"err,omitempty"`
	// Manifest is the serialized metrics.Manifest (schema 2, one run,
	// full per-SM counter resolution).
	Manifest []byte `json:"-"`
}

// size approximates the entry's memory footprint for the cache bound.
func (r *CachedResult) size() int64 {
	return int64(len(r.Manifest) + len(r.Key) + len(r.Err) + 128)
}

// lru is a byte-bounded least-recently-used map, safe for concurrent
// use. The caller prices every entry; the result cache (Cache) and the
// admission table (admission.go) are its two instances, each with its
// own bound and its own hit/miss/eviction counts.
type lru[K comparable, V any] struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // of *lruEntry[K, V]; front = most recently used
	items    map[K]*list.Element

	hits, misses, evictions int64
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

func newLRU[K comparable, V any](maxBytes int64) *lru[K, V] {
	return &lru[K, V]{maxBytes: maxBytes, ll: list.New(), items: make(map[K]*list.Element)}
}

// get returns the value stored under key and marks it most recently
// used, counting a hit or a miss.
func (l *lru[K, V]) get(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		l.misses++
		var zero V
		return zero, false
	}
	l.hits++
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// peek returns the value stored under key without counting a lookup or
// refreshing recency: a second look on behalf of a request already
// counted.
func (l *lru[K, V]) peek(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// put stores val at the given price, evicting least-recently-used
// entries until the byte bound holds. A key already present only has its
// recency refreshed (both instances map a key to one possible value), and
// an entry dearer than the whole bound is not stored.
func (l *lru[K, V]) put(key K, val V, size int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		l.ll.MoveToFront(el)
		return
	}
	if size > l.maxBytes {
		return
	}
	l.items[key] = l.ll.PushFront(&lruEntry[K, V]{key, val, size})
	l.bytes += size
	for l.bytes > l.maxBytes {
		el := l.ll.Back()
		if el == nil {
			break
		}
		victim := l.ll.Remove(el).(*lruEntry[K, V])
		delete(l.items, victim.key)
		l.bytes -= victim.size
		l.evictions++
	}
}

// stats returns current occupancy and the cumulative counts.
func (l *lru[K, V]) stats() CacheStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := CacheStats{Entries: len(l.items), Bytes: l.bytes, MaxBytes: l.maxBytes,
		Hits: l.hits, Misses: l.misses, Evictions: l.evictions}
	if total := l.hits + l.misses; total > 0 {
		s.HitRate = float64(l.hits) / float64(total)
	}
	return s
}

// Cache is a byte-bounded LRU over CachedResults. All methods are safe
// for concurrent use. Single-flight deduplication of identical jobs
// lives above it in the server's job index — the cache itself only
// stores finished results.
type Cache struct {
	lru *lru[string, *CachedResult]
}

// NewCache returns an LRU bounded at maxBytes of stored results
// (approximate footprint: manifest bytes plus fixed overhead). A bound
// of zero or less stores nothing, turning the server into a pure
// pass-through — useful for load tests of the miss path.
func NewCache(maxBytes int64) *Cache {
	return &Cache{lru: newLRU[string, *CachedResult](maxBytes)}
}

// Get returns the cached result and marks it most recently used.
func (c *Cache) Get(key string) (*CachedResult, bool) { return c.lru.get(key) }

// Put stores a result, evicting least-recently-used entries until the
// byte bound holds. An entry larger than the whole bound is not stored;
// re-putting a key refreshes its recency (deterministic results make
// overwrites value-identical).
func (c *Cache) Put(r *CachedResult) { c.lru.put(r.Key, r, r.size()) }

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	// Entries and Bytes describe current occupancy; MaxBytes the bound.
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	// Hits, Misses and Evictions are cumulative since server start.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// HitRate is Hits/(Hits+Misses), 0 before any lookup.
	HitRate float64 `json:"hit_rate"`
}

// Stats returns current occupancy and cumulative hit/miss/eviction
// counts.
func (c *Cache) Stats() CacheStats { return c.lru.stats() }
