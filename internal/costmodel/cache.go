package costmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"github.com/comet-explain/comet/internal/x86"
)

// Cache is a sharded prediction cache keyed by the SHA-256 of a basic
// block's canonical text (Key). Perturbation draws collide constantly —
// deleting different subsets of a block, or renaming registers back to
// the same choice, frequently reproduces a block already queried — so a
// hit skips the model entirely. Cached values are exact previous
// predictions of a deterministic model, so caching never changes an
// explanation, only its cost. An entry holds the 32-byte digest, never
// the text, and PredictThrough renders each query's text into a stack
// buffer: no key string is built per query or kept per entry.
//
// The cache is safe for concurrent use; sharding keeps lock contention
// negligible when a corpus run explains many blocks at once.
type Cache struct {
	shards      []cacheShard
	maxPerShard int
	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[Key]float64
}

const (
	cacheShards         = 64
	defaultCacheEntries = 1 << 20
)

// NewCache allocates a cache bounded to roughly maxEntries predictions
// (0 = default of about one million). When a shard fills up it is dropped
// wholesale — crude epoch eviction, but eviction only ever costs recompute,
// never correctness.
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = defaultCacheEntries
	}
	perShard := maxEntries / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{shards: make([]cacheShard, cacheShards), maxPerShard: perShard}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]float64)
	}
	return c
}

// NewCacheFor returns the prediction cache model's queries should share,
// bounded like NewCache, or nil when they should go uncached: for
// maxEntries < 0, and for a model that declares CheapQuery.
func NewCacheFor(model Model, maxEntries int) *Cache {
	if _, cheap := model.(CheapQuery); cheap || maxEntries < 0 {
		return nil
	}
	return NewCache(maxEntries)
}

// Key identifies a block in the cache: the SHA-256 of its canonical text,
// which is exactly the information a cost model sees.
type Key [32]byte

// KeyOf returns the block's Key. The text is rendered into a stack
// buffer, so a block of up to 512 bytes of text costs no allocation.
func KeyOf(b *x86.BasicBlock) Key {
	var buf [512]byte
	return sha256.Sum256(b.AppendText(buf[:0]))
}

// BlockKey returns a block's canonical text, the string form of a cache
// key that Get and Put take: Get(BlockKey(b)) looks up KeyOf(b).
func BlockKey(b *x86.BasicBlock) string { return b.String() }

// shardOf picks a key's shard from the digest's first eight bytes. The
// digest is fixed rather than randomly seeded (hash/maphash), so shard
// assignment, and with it which entries an eviction drops, is the same
// on every run.
func shardOf(k Key) int { return int(binary.LittleEndian.Uint64(k[:8]) % cacheShards) }

func (c *Cache) shard(k Key) *cacheShard { return &c.shards[shardOf(k)] }

// Get returns the cached prediction for a block's canonical text
// (BlockKey), if present.
func (c *Cache) Get(key string) (float64, bool) { return c.get(sha256.Sum256([]byte(key))) }

// Put stores a prediction under a block's canonical text (BlockKey).
func (c *Cache) Put(key string, pred float64) { c.put(sha256.Sum256([]byte(key)), pred) }

func (c *Cache) get(k Key) (float64, bool) {
	s := c.shard(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// put stores a prediction. Concurrent puts of the same key are idempotent
// because predictions are deterministic per block.
func (c *Cache) put(k Key, pred float64) {
	s := c.shard(k)
	s.mu.Lock()
	if len(s.m) >= c.maxPerShard {
		c.evictions.Add(uint64(len(s.m)))
		s.m = make(map[Key]float64)
	}
	s.m[k] = pred
	s.mu.Unlock()
}

// Len returns the number of cached predictions.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the global hit/miss counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}

// PredictThrough is the one route from a caller to a cost model. It
// resolves a prediction for every block through the cache (which may be
// nil) and then the model, issuing at most batch blocks per call (batch
// <= 0 means one call for all misses). Each call is split into at most
// workers contiguous parts (0 = GOMAXPROCS) on as many goroutines, and
// each part goes to the model's own PredictBatch when it implements
// BatchModel, otherwise to Predict block by block: workers bounds every
// model's concurrent queries. Duplicate blocks within the slice are
// predicted once. Results are written into preds, which must have
// len(blocks) elements. It returns how many of the queries were answered
// without a model evaluation (cache hits plus within-batch duplicates)
// and how many blocks the model actually evaluated.
//
// A model that declares CheapQuery skips the key, the dedup, the cache
// and the batching: every block goes to its Predict, inline on the
// caller's goroutine whatever batch and workers are, and saved is 0.
func PredictThrough(cache *Cache, model Model, blocks []*x86.BasicBlock, batch, workers int, preds []float64) (saved, evaluated int) {
	if len(blocks) == 0 {
		return 0, 0
	}
	if batch <= 0 {
		batch = len(blocks)
	}
	if _, cheap := model.(CheapQuery); cheap {
		for i, b := range blocks {
			preds[i] = model.Predict(b)
		}
		return 0, len(blocks)
	}
	fan := fanOut{model, workers}
	// The dedup bookkeeping is pooled: every explanation calls
	// PredictThrough once per sampling round, and a fresh map plus three
	// slices per call dominated the query path's allocations. Duplicate
	// slots chain through next (an intrusive linked list over slot
	// indices) instead of per-key []int slices.
	sc := ptScratchPool.Get().(*predictScratch)
	defer sc.release()
	pending := sc.pending // block key → most recent slot wanting it
	if cap(sc.next) < len(blocks) {
		sc.next = make([]int, len(blocks))
	}
	next := sc.next[:len(blocks)]
	missKeys := sc.missKeys[:0]
	missBlocks := sc.missBlocks[:0]
	for i, b := range blocks {
		key := KeyOf(b)
		if cache != nil {
			if v, ok := cache.get(key); ok {
				preds[i] = v
				saved++
				continue
			}
		}
		if head, ok := pending[key]; ok {
			next[i] = head
			pending[key] = i
			saved++
			continue
		}
		next[i] = -1
		pending[key] = i
		missKeys = append(missKeys, key)
		missBlocks = append(missBlocks, b)
	}
	sc.missKeys, sc.missBlocks = missKeys, missBlocks // keep grown buffers
	for start := 0; start < len(missBlocks); start += batch {
		end := min(start+batch, len(missBlocks))
		out := fan.PredictBatch(missBlocks[start:end])
		for j, v := range out {
			key := missKeys[start+j]
			if cache != nil {
				cache.put(key, v)
			}
			for slot := pending[key]; slot >= 0; slot = next[slot] {
				preds[slot] = v
			}
		}
	}
	return saved, len(missBlocks)
}

// predictScratch is PredictThrough's pooled working state.
type predictScratch struct {
	pending    map[Key]int
	next       []int
	missKeys   []Key
	missBlocks []*x86.BasicBlock
}

var ptScratchPool = sync.Pool{
	New: func() any {
		return &predictScratch{pending: make(map[Key]int, 64)}
	},
}

// release clears pointer-bearing state (so pooled scratch never pins
// blocks) and returns the scratch to the pool. Scratch that ballooned on
// a giant batch is dropped rather than pinned.
func (sc *predictScratch) release() {
	if len(sc.pending) > 1<<16 || cap(sc.next) > 1<<20 {
		return
	}
	clear(sc.pending)
	for i := range sc.missBlocks {
		sc.missBlocks[i] = nil
	}
	sc.missKeys = sc.missKeys[:0]
	sc.missBlocks = sc.missBlocks[:0]
	ptScratchPool.Put(sc)
}
