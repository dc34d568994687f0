package sweep

import (
	"errors"
	"testing"
)

// chainLen counts the resident entries indexed under hash h.
func chainLen(s *cacheShard, h uint64) int {
	n := 0
	for e := s.idx[h]; e != nil; e = e.hnext {
		n++
	}
	return n
}

// TestCacheHashCollisionChains forces distinct keys onto one hash in
// one shard and checks that lookup, LRU eviction, the error path and
// removal each act on exactly the right entry of the shared chain.
func TestCacheHashCollisionChains(t *testing.T) {
	const h = 0x5eed
	s := &cacheShard{cap: 3, idx: make(map[uint64]*centry)}
	keys := make([]specKey, 5)
	for i := range keys {
		keys[i] = specKey{n: int64(100 + i), mach: machKey{tflp: float64(i)}}
	}
	entries := make([]*centry, len(keys))
	add := func(i int) {
		entries[i] = &centry{key: keys[i], hash: h, done: closedCh, out: outcome{grid: i}}
		s.insert(entries[i])
	}
	found := func(i int) bool {
		e := s.find(h, keys[i])
		if e != nil && e != entries[i] {
			t.Fatalf("find(key %d) returned the entry for key %d", i, e.out.grid)
		}
		return e != nil
	}
	wantResident := func(resident ...int) {
		t.Helper()
		in := map[int]bool{}
		for _, i := range resident {
			in[i] = true
		}
		for i := range keys {
			if found(i) != in[i] {
				t.Fatalf("key %d resident=%t, want %t", i, !in[i], in[i])
			}
		}
		if got := chainLen(s, h); got != len(resident) || s.n != len(resident) {
			t.Fatalf("chain holds %d, shard %d; want %d", got, s.n, len(resident))
		}
	}

	for i := 0; i < 3; i++ {
		add(i)
	}
	wantResident(0, 1, 2)

	// Touch key 0 so key 1 is least recently used; a fourth insert at
	// capacity must evict key 1 from the middle of the chain.
	s.moveToFront(entries[0])
	add(3)
	wantResident(0, 2, 3)

	// A failed computation under the same hash is dropped without
	// disturbing its chain neighbours.
	s.cap = 4
	out, hit := s.getOrCompute(nil, h, keys[4], func() outcome {
		if s.find(h, keys[4]) == nil {
			t.Error("in-flight entry not resident while computing")
		}
		return outcome{err: errors.New("model error")}
	})
	if out.err == nil || hit {
		t.Fatalf("failed computation returned %+v hit=%t", out, hit)
	}
	wantResident(0, 2, 3)

	// Remove from the middle, then the head, then the last entry: the
	// index must hold no slot once the chain is empty.
	s.remove(entries[2])
	wantResident(0, 3)
	s.remove(entries[3])
	wantResident(0)
	s.remove(entries[0])
	wantResident()
	if len(s.idx) != 0 || s.head != nil || s.tail != nil {
		t.Fatalf("empty shard keeps %d index slots (head %p, tail %p)", len(s.idx), s.head, s.tail)
	}
}

// BenchmarkCacheChurn measures the cache on an all-miss workload at
// full capacity, as a stream of never-repeated sweeps drives it: every
// operation inserts a fresh key and evicts the least recently used one.
// getOrCompute is the per-spec path, putBatch the batched speedup path
// (64-member groups, reported per inserted entry).
func BenchmarkCacheChurn(b *testing.B) {
	const capacity = DefaultCacheSize
	// Keys differ only in n, which spreads them evenly over the shards.
	key := func(i int) specKey {
		return specKey{op: 2, n: int64(512 + i), procs: 16, mach: machKey{tflp: 1e-6}}
	}
	// Twice the capacity fills every shard past its share plus slack.
	fill := func(c *cache) int {
		for i := 0; i < 2*capacity; i++ {
			c.put(key(i), outcome{grid: i})
		}
		return 2 * capacity
	}
	b.Run("getOrCompute", func(b *testing.B) {
		c := newCache(capacity)
		next := fill(c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.getOrCompute(nil, key(next+i), func() outcome { return outcome{grid: i} })
		}
	})
	b.Run("putBatch", func(b *testing.B) {
		const group = 64
		c := newCache(capacity)
		next := fill(c)
		keys := make([]specKey, group)
		outs := make([]outcome, group)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += group {
			for j := range keys {
				keys[j] = key(next + i + j)
				outs[j] = outcome{grid: j}
			}
			c.putBatch(keys, outs)
		}
	})
}
