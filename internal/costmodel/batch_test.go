package costmodel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/x86"
)

// lenModel is a deterministic toy model that counts its evaluations.
type lenModel struct {
	mu    sync.Mutex
	calls int
}

func (m *lenModel) Name() string   { return "len" }
func (m *lenModel) Arch() x86.Arch { return x86.Haswell }
func (m *lenModel) Predict(b *x86.BasicBlock) float64 {
	m.mu.Lock()
	m.calls++
	m.mu.Unlock()
	return float64(b.Len()) / 4
}

func testBlocks(t testing.TB, n int) []*x86.BasicBlock {
	t.Helper()
	blocks := make([]*x86.BasicBlock, n)
	for i := range blocks {
		src := "add rax, rbx"
		for j := 0; j < i%5; j++ {
			src += fmt.Sprintf("\nadd rcx, %d", j)
		}
		blocks[i] = x86.MustParseBlock(src)
	}
	return blocks
}

func TestAsBatchMatchesSequential(t *testing.T) {
	model := &lenModel{}
	blocks := testBlocks(t, 37)
	batched := AsBatch(model).PredictBatch(blocks)
	for i, b := range blocks {
		if want := model.Predict(b); batched[i] != want {
			t.Errorf("block %d: batched %v != sequential %v", i, batched[i], want)
		}
	}
	if got := AsBatch(model).Name(); got != "len" {
		t.Errorf("Name() = %q", got)
	}
}

func TestAsBatchPassesThroughNativeImplementations(t *testing.T) {
	native := &batchLenModel{}
	if AsBatch(native) != BatchModel(native) {
		t.Error("AsBatch should return a BatchModel unchanged")
	}
	if _, ok := AsBatch(&lenModel{}).(fanOut); !ok {
		t.Error("AsBatch should adapt a plain Model with fan-out")
	}
}

func TestFanOutSmallAndEmpty(t *testing.T) {
	model := &lenModel{}
	if out := (fanOut{model, 4}).PredictBatch(nil); len(out) != 0 {
		t.Errorf("empty fan-out returned %v", out)
	}
	blocks := testBlocks(t, 2)
	out := fanOut{model, 8}.PredictBatch(blocks)
	for i, b := range blocks {
		if out[i] != model.Predict(b) {
			t.Errorf("block %d mismatch", i)
		}
	}
}

func TestCacheGetPutStats(t *testing.T) {
	c := NewCache(0)
	b := x86.MustParseBlock("add rax, rbx\nmov rcx, rax")
	key := BlockKey(b)
	if _, ok := c.Get(key); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put(key, 1.25)
	v, ok := c.Get(key)
	if !ok || v != 1.25 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}

func TestCacheEvictsWhenFull(t *testing.T) {
	c := NewCache(cacheShards) // one entry per shard
	blocks := testBlocks(t, 64)
	for i, b := range blocks {
		c.Put(BlockKey(b), float64(i))
	}
	if n := c.Len(); n > 2*cacheShards {
		t.Errorf("cache grew past its bound: %d entries", n)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(0)
	blocks := testBlocks(t, 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, b := range blocks {
				key := BlockKey(b)
				if v, ok := c.Get(key); ok && v != float64(b.Len()) {
					t.Errorf("block %d: stale value %v", i, v)
				}
				c.Put(key, float64(b.Len()))
			}
		}()
	}
	wg.Wait()
}

func TestPredictThroughDeduplicatesAndCounts(t *testing.T) {
	model := &lenModel{}
	c := NewCache(0)
	b1 := x86.MustParseBlock("add rax, rbx")
	b2 := x86.MustParseBlock("mov rcx, rdx")
	blocks := []*x86.BasicBlock{b1, b2, b1, b1, b2}
	preds := make([]float64, len(blocks))
	saved, evaluated := PredictThrough(c, model, blocks, 2, 0, preds)
	if evaluated != 2 {
		t.Errorf("evaluated = %d, want 2 (unique blocks)", evaluated)
	}
	if saved != 3 {
		t.Errorf("saved = %d, want 3 (duplicates)", saved)
	}
	for i, b := range blocks {
		if want := float64(b.Len()) / 4; preds[i] != want {
			t.Errorf("preds[%d] = %v, want %v", i, preds[i], want)
		}
	}
	// A second pass over the same blocks is all cache hits.
	saved, evaluated = PredictThrough(c, model, blocks, 2, 0, preds)
	if saved != len(blocks) || evaluated != 0 {
		t.Errorf("warm pass: saved=%d evaluated=%d", saved, evaluated)
	}
}

// batchLenModel is lenModel with a native batch path that records the
// size of every PredictBatch call.
type batchLenModel struct {
	lenModel
	batches []int
}

func (m *batchLenModel) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	m.batches = append(m.batches, len(blocks))
	return fanOut{&m.lenModel, 1}.PredictBatch(blocks)
}

// cheapLenModel is batchLenModel declaring CheapQuery.
type cheapLenModel struct{ batchLenModel }

func (*cheapLenModel) CheapQuery() {}

func TestPredictThroughBypassesCacheForCheapQuery(t *testing.T) {
	b1 := x86.MustParseBlock("add rax, rbx")
	b2 := x86.MustParseBlock("mov rcx, rdx\nadd rax, rbx")
	blocks := []*x86.BasicBlock{b1, b2, b1, b1, b2}
	preds := make([]float64, len(blocks))
	check := func(name string) {
		t.Helper()
		for i, b := range blocks {
			if want := float64(b.Len()) / 4; preds[i] != want {
				t.Errorf("%s: preds[%d] = %v, want %v", name, i, preds[i], want)
			}
		}
	}

	cheap := &cheapLenModel{}
	c := NewCache(0)
	for pass := 0; pass < 2; pass++ {
		clear(preds)
		saved, evaluated := PredictThrough(c, cheap, blocks, 2, 0, preds)
		if saved != 0 || evaluated != len(blocks) {
			t.Errorf("cheap pass %d: saved=%d evaluated=%d, want 0 and %d", pass, saved, evaluated, len(blocks))
		}
		check("cheap")
	}
	if cheap.calls != 2*len(blocks) {
		t.Errorf("cheap model evaluated %d blocks, want every block of both passes (%d)", cheap.calls, 2*len(blocks))
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Errorf("cache touched by a cheap model: %+v", st)
	}
	// The same model without the declaration is deduplicated and cached.
	plain := &batchLenModel{}
	clear(preds)
	saved, evaluated := PredictThrough(c, plain, blocks, 2, 0, preds)
	if saved != 3 || evaluated != 2 || plain.calls != 2 {
		t.Errorf("plain: saved=%d evaluated=%d calls=%d, want 3, 2, 2", saved, evaluated, plain.calls)
	}
	check("plain")
	if st := c.Stats(); st.Entries != 2 {
		t.Errorf("plain model cached %d entries, want 2", st.Entries)
	}
}

// cheapPlainModel is lenModel declaring CheapQuery without a native
// batch path.
type cheapPlainModel struct{ lenModel }

func (*cheapPlainModel) CheapQuery() {}

// TestCheapQueryWithoutBatchPathGoesUncached: a model that declares
// CheapQuery but has no PredictBatch is queried directly, with no key,
// dedup or cache, and NewCacheFor gives it no cache.
func TestCheapQueryWithoutBatchPathGoesUncached(t *testing.T) {
	b1 := x86.MustParseBlock("add rax, rbx")
	blocks := []*x86.BasicBlock{b1, b1, b1}
	model := &cheapPlainModel{}
	if c := NewCacheFor(model, 0); c != nil {
		t.Error("NewCacheFor returned a cache")
	}
	c := NewCache(0)
	preds := make([]float64, len(blocks))
	saved, evaluated := PredictThrough(c, model, blocks, 2, 0, preds)
	if saved != 0 || evaluated != len(blocks) || model.calls != len(blocks) {
		t.Errorf("saved=%d evaluated=%d calls=%d, want 0, %d, %d",
			saved, evaluated, model.calls, len(blocks), len(blocks))
	}
	if preds[2] != 0.25 {
		t.Errorf("preds %v", preds)
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Errorf("cache touched: %+v", st)
	}
}

// peakModel records the most Predict calls it has seen in flight at once.
type peakModel struct {
	lenModel
	inFlight, peak atomic.Int32
}

// enter counts one call in flight until the returned func runs.
func (m *peakModel) enter() func() {
	n := m.inFlight.Add(1)
	for p := m.peak.Load(); n > p && !m.peak.CompareAndSwap(p, n); p = m.peak.Load() {
	}
	time.Sleep(100 * time.Microsecond)
	return func() { m.inFlight.Add(-1) }
}

func (m *peakModel) Predict(b *x86.BasicBlock) float64 {
	defer m.enter()()
	return m.lenModel.Predict(b)
}

// peakBatchModel is a native BatchModel recording the most PredictBatch
// calls in flight at once and, through index, the blocks of every call.
type peakBatchModel struct {
	peakModel
	index map[*x86.BasicBlock]int
	mu    sync.Mutex
	parts [][]int
}

func (m *peakBatchModel) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	defer m.enter()()
	part := make([]int, len(blocks))
	for i, b := range blocks {
		part[i] = m.index[b]
	}
	m.mu.Lock()
	m.parts = append(m.parts, part)
	m.mu.Unlock()
	out := make([]float64, len(blocks))
	for i, b := range blocks {
		out[i] = m.lenModel.Predict(b)
	}
	return out
}

// TestPredictThroughBoundsFanOut: a model is queried by at most workers
// goroutines at once, whatever GOMAXPROCS is — a plain model through
// Predict, a native batch model through PredictBatch calls that each get
// one contiguous part of the batch.
func TestPredictThroughBoundsFanOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	blocks := make([]*x86.BasicBlock, 128) // distinct, so none dedup away
	index := make(map[*x86.BasicBlock]int, len(blocks))
	for i := range blocks {
		blocks[i] = x86.MustParseBlock(fmt.Sprintf("add rcx, %d", i))
		index[blocks[i]] = i
	}
	for _, workers := range []int{1, 2, 3} {
		plain, native := &peakModel{}, &peakBatchModel{index: index}
		for _, m := range []struct {
			model Model
			peak  *atomic.Int32
		}{{plain, &plain.peak}, {native, &native.peak}} {
			preds := make([]float64, len(blocks))
			PredictThrough(nil, m.model, blocks, 0, workers, preds)
			name := fmt.Sprintf("workers=%d, %T", workers, m.model)
			if p := m.peak.Load(); p > int32(workers) {
				t.Errorf("%s: %d model calls ran at once", name, p)
			}
			for i, b := range blocks {
				if preds[i] != float64(b.Len())/4 {
					t.Fatalf("%s: preds[%d] = %v", name, i, preds[i])
				}
			}
		}
		if len(native.parts) > workers {
			t.Errorf("workers=%d: %d PredictBatch calls", workers, len(native.parts))
		}
		covered := 0
		for _, part := range native.parts {
			for j, i := range part {
				if i != part[0]+j {
					t.Fatalf("workers=%d: part starting at block %d is not contiguous: %v", workers, part[0], part)
				}
			}
			covered += len(part)
		}
		if covered != len(blocks) {
			t.Errorf("workers=%d: parts cover %d of %d blocks", workers, covered, len(blocks))
		}
	}
}

func TestNewCacheFor(t *testing.T) {
	if NewCacheFor(&lenModel{}, -1) != nil {
		t.Error("a negative bound should disable the cache")
	}
	if NewCacheFor(&cheapLenModel{}, 0) != nil {
		t.Error("a CheapQuery model should get no cache")
	}
	if c := NewCacheFor(&lenModel{}, 0); c == nil || c.maxPerShard != defaultCacheEntries/cacheShards {
		t.Error("a plain model should get a default-sized cache")
	}
}
