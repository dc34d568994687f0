package sweep

import (
	"errors"
	"sync"
)

// ErrWaitCancelled reports that a caller coalesced onto another
// goroutine's in-flight computation and its context was cancelled before
// that computation finished. The underlying computation continues and
// will still fill the cache for future requests.
var ErrWaitCancelled = errors.New("sweep: cancelled while waiting for an in-flight result")

// maxCacheShards bounds the shard count; small caches use fewer shards
// so the configured capacity stays exact.
const maxCacheShards = 16

// closedCh is the shared pre-closed done channel of every entry
// inserted already complete (put/putBatch): completed entries never
// need a private channel, which keeps a bulk insert at one slab
// allocation for the whole batch.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// cache is a sharded, bounded LRU memoization table with in-flight
// coalescing: struct keys hash to one of up to maxCacheShards
// independent shards, so concurrent lookups from the worker pool
// contend only per-shard. Each call hashes its key once; the 64-bit
// hash both picks the shard and indexes the shard's map, so the map
// never hashes the wide struct key field by field. Within a shard, the
// first goroutine to request a key via getOrCompute computes it while
// later requesters for the same key block on the entry instead of
// recomputing (the request-coalescing behavior the HTTP service relies
// on when identical per-spec sweeps arrive concurrently). The batched
// speedup path uses peek/putBatch instead and trades that per-key
// coalescing for whole-group batching: concurrent identical cold
// batched sweeps may duplicate a group computation (the first insert
// wins), but completed entries still serve everyone afterwards. Failed
// computations are not retained, so a transient error never poisons
// the cache.
type cache struct {
	shards []*cacheShard
}

// cacheShard is one independently locked LRU over intrusively linked
// entries: the list pointers live inside centry, so inserting an entry
// costs no container node beyond the entry itself, and a batch insert
// of n entries costs one []centry slab. The index maps a key hash to
// the head of a chain of the resident entries with that hash (linked
// through hnext); lookups compare the full key along the chain, so a
// hash collision can never return the wrong entry.
type cacheShard struct {
	mu   sync.Mutex
	cap  int
	n    int     // resident entries
	head *centry // most recently used
	tail *centry // least recently used
	idx  map[uint64]*centry
}

// centry is one cache slot. done is closed once out is populated
// (entries inserted complete share the closedCh sentinel); waiters
// hold the pointer, so eviction never races a fill. prev/next are the
// shard's intrusive LRU links, owned by the shard lock; an evicted
// entry's links are cleared but the entry stays valid for any waiter
// still holding it. hash is key.hash(), and hnext links the next
// entry with the same hash. Entries inserted by putBatch live in a
// shared slab ([]centry), so an evicted slab member keeps its slab
// reachable until every member is gone — acceptable, because a
// batch's members enter together and age out of the LRU together.
type centry struct {
	key        specKey
	hash       uint64
	done       chan struct{}
	out        outcome
	prev, next *centry
	hnext      *centry
}

func newCache(capacity int) *cache {
	n := maxCacheShards
	if capacity < n {
		n = capacity
	}
	if n < 1 {
		n = 1
	}
	c := &cache{shards: make([]*cacheShard, n)}
	// Hashing spreads keys only approximately evenly, so each shard
	// carries 1/8 slack over its fair share: a sweep of exactly the
	// configured capacity stays resident even with the statistical
	// imbalance of a binomial split (the slack covers many standard
	// deviations at any realistic capacity). Total capacity may
	// therefore slightly exceed the configured value.
	per := (capacity + n - 1) / n
	if n > 1 {
		per += per / 8
	}
	if per < 1 {
		per = 1
	}
	// The index maps start empty and grow with residency: presizing
	// them for the configured capacity would charge every engine
	// construction up front — the wrong trade for the common small
	// sweep.
	for i := range c.shards {
		c.shards[i] = &cacheShard{cap: per, idx: make(map[uint64]*centry)}
	}
	return c
}

// shard returns the shard owning a key hash.
func (c *cache) shard(h uint64) *cacheShard {
	return c.shards[h%uint64(len(c.shards))]
}

// --- intrusive LRU plumbing (all under the shard lock) ---

// pushFront links a fresh entry as most recently used.
func (s *cacheShard) pushFront(e *centry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
	s.n++
}

// unlink removes an entry from the LRU list without touching the index.
func (s *cacheShard) unlink(e *centry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	s.n--
}

// moveToFront marks an entry most recently used.
func (s *cacheShard) moveToFront(e *centry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// find returns the resident entry for key, whose hash is h, or nil.
func (s *cacheShard) find(h uint64, key specKey) *centry {
	for e := s.idx[h]; e != nil; e = e.hnext {
		if e.key == key {
			return e
		}
	}
	return nil
}

// insert makes a fresh entry resident as most recently used, then
// evicts least-recently-used entries until the shard is within
// capacity. The caller has checked that no entry for e.key is resident.
func (s *cacheShard) insert(e *centry) {
	e.hnext = s.idx[e.hash]
	s.idx[e.hash] = e
	s.pushFront(e)
	for s.n > s.cap {
		s.remove(s.tail)
	}
}

// remove drops a resident entry from the LRU list and its hash chain,
// deleting the chain's index slot once it is empty.
func (s *cacheShard) remove(e *centry) {
	s.unlink(e)
	if head := s.idx[e.hash]; head == e {
		if e.hnext == nil {
			delete(s.idx, e.hash)
		} else {
			s.idx[e.hash] = e.hnext
		}
	} else {
		for head.hnext != e {
			head = head.hnext
		}
		head.hnext = e.hnext
	}
	e.hnext = nil
}

// getOrCompute returns the outcome for key, computing it with fn on a
// miss. The bool reports whether the value came from the cache — either
// an already-complete entry (a hit) or an in-flight computation by
// another goroutine (coalesced); both avoid recomputation. A waiter
// whose cancel channel closes before the in-flight computation finishes
// gets ErrWaitCancelled instead of blocking past its context; fn itself
// must not block on cancel (it is pure model evaluation).
func (c *cache) getOrCompute(cancel <-chan struct{}, key specKey, fn func() outcome) (outcome, bool) {
	h := key.hash()
	return c.shard(h).getOrCompute(cancel, h, key, fn)
}

// getOrCompute is cache.getOrCompute on the shard owning h, key's hash.
func (s *cacheShard) getOrCompute(cancel <-chan struct{}, h uint64, key specKey, fn func() outcome) (outcome, bool) {
	s.mu.Lock()
	if e := s.find(h, key); e != nil {
		s.moveToFront(e)
		s.mu.Unlock()
		select {
		case <-e.done:
			// A failed computation is never "served from the cache":
			// waiters that coalesced onto it get the error without the
			// hit flag (the entry itself is removed below).
			return e.out, e.out.err == nil
		case <-cancel:
			return outcome{err: ErrWaitCancelled}, false
		}
	}
	e := &centry{key: key, hash: h, done: make(chan struct{})}
	s.insert(e)
	s.mu.Unlock()

	e.out = fn()
	close(e.done)
	if e.out.err != nil {
		s.mu.Lock()
		// The entry may already have been evicted; only remove it if
		// the index still maps the key to this entry.
		if s.find(h, key) == e {
			s.remove(e)
		}
		s.mu.Unlock()
	}
	return e.out, false
}

// peek returns the outcome for key without inserting anything on a
// miss: the batched evaluation path probes its whole group first and
// computes only the absentees in one pass. A resident in-flight entry
// is waited on exactly like a getOrCompute hit (the waiter coalesces),
// so peek honors cancel the same way. The bool reports residency.
func (c *cache) peek(cancel <-chan struct{}, key specKey) (outcome, bool) {
	h := key.hash()
	s := c.shard(h)
	s.mu.Lock()
	e := s.find(h, key)
	if e == nil {
		s.mu.Unlock()
		return outcome{}, false
	}
	s.moveToFront(e)
	s.mu.Unlock()
	select {
	case <-e.done:
		return e.out, true
	case <-cancel:
		return outcome{err: ErrWaitCancelled}, true
	}
}

// put inserts a completed successful outcome for key, evicting LRU
// entries as needed. An existing resident entry wins (it may have
// waiters parked on its done channel), and errored outcomes are
// dropped to preserve the never-cache-failures invariant.
func (c *cache) put(key specKey, out outcome) {
	if out.err != nil {
		return
	}
	h := key.hash()
	s := c.shard(h)
	e := &centry{key: key, hash: h, done: closedCh, out: out}
	s.mu.Lock()
	if s.find(h, key) == nil {
		s.insert(e)
	}
	s.mu.Unlock()
}

// putBatch inserts the successful members of one batched group in a
// single slab: one []centry allocation covers every inserted entry, and
// the shared closedCh stands in for the per-entry done channel, so a
// 64-member procs group costs one allocation instead of three per
// member. keys and outs are parallel; errored outcomes are skipped
// (never cached), and an existing resident entry wins, exactly as put.
func (c *cache) putBatch(keys []specKey, outs []outcome) {
	n := 0
	for _, o := range outs {
		if o.err == nil {
			n++
		}
	}
	if n == 0 {
		return
	}
	slab := make([]centry, 0, n)
	for i, o := range outs {
		if o.err != nil {
			continue
		}
		h := keys[i].hash()
		slab = append(slab, centry{key: keys[i], hash: h, done: closedCh, out: o})
		e := &slab[len(slab)-1]
		s := c.shard(h)
		s.mu.Lock()
		if s.find(h, e.key) == nil {
			s.insert(e)
		}
		s.mu.Unlock()
	}
}

// len returns the number of resident entries across all shards.
func (c *cache) len() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.n
		s.mu.Unlock()
	}
	return total
}
