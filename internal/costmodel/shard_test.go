package costmodel_test

import (
	"testing"

	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/costmodel"
)

// TestShardHashDeterministicAndSpread pins the cache's shard hash. It
// must not depend on the process: a randomly seeded hash would make
// eviction, and so cache-hit counts, differ from run to run. It must also
// spread real block keys over every shard.
func TestShardHashDeterministicAndSpread(t *testing.T) {
	for key, want := range map[string]uint64{
		"":                                    0,
		"nop":                                 0xa199bb3b949bc29e,
		"add rcx, rax\nmov rdx, rcx\npop rbx": 0x5adf3469ef760b36,
	} {
		if got := costmodel.ShardHash(key); got != want {
			t.Errorf("ShardHash(%q) = %#x, want %#x", key, got, want)
		}
	}

	const n = 2000
	counts := make([]int, costmodel.CacheShards)
	for _, b := range bhive.Generate(bhive.Config{N: n, Seed: 1, SkipLabels: true}) {
		counts[costmodel.ShardHash(costmodel.BlockKey(b.Block))%costmodel.CacheShards]++
	}
	mean := n / costmodel.CacheShards
	for shard, c := range counts {
		if c == 0 || c > 2*mean {
			t.Errorf("shard %d holds %d of %d bhive keys (mean %d): %v", shard, c, n, mean, counts)
		}
	}
}
