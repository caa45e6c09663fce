package phocus

import (
	"container/list"
	"errors"
	"sync"
)

// errPreparePanicked is what the waiters of a flight whose prepare panicked
// receive; the panic itself goes on up the builder's stack.
var errPreparePanicked = errors.New("phocus: prepare panicked")

// PreparedCache is a bounded LRU of Prepared instances keyed by fingerprint
// (the same reactive eviction idiom as internal/storage's LRUCache, applied
// to prepared pipelines instead of photos). It bounds both the entry count
// and the summed SizeBytes of the cached values, evicting least recently
// used entries until both bounds hold. All methods are safe for concurrent
// use, and so is a cached Prepared: many requests Run one value at once, and
// an ApplyDelta mutates it in place under its own write lock.
//
// Byte accounting. An entry is charged its SizeBytes, memoized at insert
// time — a later ApplyDelta may change the live value's SizeBytes, and the
// cache must subtract at eviction exactly what it added at insert or
// usedBytes drifts.
type PreparedCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	usedBytes  int64
	order      *list.List // front = most recently used
	elems      map[string]*list.Element
	stats      CacheStats
	flights    map[string]*flight
}

// flight is one in-progress Prepare shared by every concurrent
// GetOrPrepare call for the same key (singleflight).
type flight struct {
	done chan struct{}
	prep *Prepared
	err  error
}

// CacheStats is the access accounting of a PreparedCache.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

type cacheEntry struct {
	key  string
	prep *Prepared
	size int64 // SizeBytes at insert time; see the type comment
}

// NewPreparedCache returns an empty cache bounded by maxEntries entries and
// maxBytes summed charged bytes. Bounds ≤ 0 are unlimited; an entry larger
// than maxBytes on its own is never admitted.
func NewPreparedCache(maxEntries int, maxBytes int64) *PreparedCache {
	return &PreparedCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		elems:      make(map[string]*list.Element),
		flights:    make(map[string]*flight),
	}
}

// Put inserts (or refreshes) a Prepared under the key and evicts least
// recently used entries until the bounds hold again, returning how many
// entries were evicted. Values too large for the byte bound are dropped
// without disturbing the cache.
func (c *PreparedCache) Put(key string, p *Prepared) (evicted int) {
	size := p.SizeBytes()
	if c.maxBytes > 0 && size > c.maxBytes {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.elems[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.usedBytes += size - ent.size
		ent.prep, ent.size = p, size
		c.order.MoveToFront(el)
	} else {
		c.elems[key] = c.order.PushFront(&cacheEntry{key: key, prep: p, size: size})
		c.usedBytes += size
	}
	for c.order.Len() > 0 &&
		((c.maxEntries > 0 && c.order.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.usedBytes > c.maxBytes)) {
		back := c.order.Back()
		ent := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.elems, ent.key)
		c.usedBytes -= ent.size
		c.stats.Evictions++
		evicted++
	}
	return evicted
}

// GetOrPrepare returns the cached Prepared for key or builds it with
// prepare, deduplicating concurrent builds: while one caller's prepare for
// a key is in flight, other callers for the same key wait for its outcome
// instead of preparing again (the same-archive burst pattern the async job
// queue produces — N queued jobs over one archive prepare once, not N
// times). A successful build is inserted under the key; hit reports whether
// the value came from the cache or a joined flight (both avoided a
// prepare), and evicted how many entries the insert displaced. Errors are
// returned to every waiter of the flight and never cached. A prepare that
// panics releases its flight all the same: its waiters get an error,
// nothing is cached, the next call for the key builds afresh, and the
// panic continues up the calling goroutine.
func (c *PreparedCache) GetOrPrepare(key string, prepare func() (*Prepared, error)) (p *Prepared, hit bool, evicted int, err error) {
	c.mu.Lock()
	if el, ok := c.elems[key]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		c.mu.Unlock()
		return el.Value.(*cacheEntry).prep, true, 0, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, 0, f.err
		}
		// The flight owner inserted the value; joining its build still
		// avoided a prepare, so it reports as a hit.
		return f.prep, true, 0, nil
	}
	f := &flight{done: make(chan struct{}), err: errPreparePanicked}
	c.flights[key] = f
	c.stats.Misses++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()

	f.prep, f.err = prepare() // a panic leaves f.err at errPreparePanicked
	if f.err == nil {
		evicted = c.Put(key, f.prep)
	}
	return f.prep, false, evicted, f.err
}

// Remove drops the key's entry if present, reporting whether it was. The
// delta path uses it to invalidate a Prepared's pre-churn cache key the
// moment its fingerprint evolves.
func (c *PreparedCache) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.elems[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.elems, key)
	c.usedBytes -= el.Value.(*cacheEntry).size
	return true
}

// Len returns the number of cached entries.
func (c *PreparedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// UsedBytes returns the summed charged bytes (SizeBytes at insert time) of
// the cached entries.
func (c *PreparedCache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.usedBytes
}

// Stats returns a copy of the accumulated access statistics.
func (c *PreparedCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
