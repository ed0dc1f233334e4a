package costmodel_test

import (
	"crypto/sha256"
	"testing"

	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/costmodel"
)

// TestShardHashDeterministicAndSpread pins the cache's shard choice: the
// first eight bytes of a key's digest. It must not depend on the
// process: a randomly seeded hash would make eviction, and so cache-hit
// counts, differ from run to run. It must also spread real block keys
// over every shard.
func TestShardHashDeterministicAndSpread(t *testing.T) {
	for text, want := range map[string]int{
		"":                                    35,
		"nop":                                 43,
		"add rcx, rax\nmov rdx, rcx\npop rbx": 49,
	} {
		if got := costmodel.ShardOf(sha256.Sum256([]byte(text))); got != want {
			t.Errorf("ShardOf(%q) = %d, want %d", text, got, want)
		}
	}

	const n = 2000
	counts := make([]int, costmodel.CacheShards)
	for _, b := range bhive.Generate(bhive.Config{N: n, Seed: 1, SkipLabels: true}) {
		counts[costmodel.ShardOf(costmodel.KeyOf(b.Block))]++
	}
	mean := n / costmodel.CacheShards
	for shard, c := range counts {
		if c == 0 || c > 2*mean {
			t.Errorf("shard %d holds %d of %d bhive keys (mean %d): %v", shard, c, n, mean, counts)
		}
	}
}
