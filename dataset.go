package comet

import "github.com/comet-explain/comet/internal/bhive"

// The synthetic BHive-like dataset generator, standing in for the BHive
// corpus the paper evaluates on (PAPER.md).

// DatasetBlock is one generated block with metadata and hardware labels.
type DatasetBlock = bhive.Block

// DatasetConfig controls dataset generation.
type DatasetConfig = bhive.Config

// BlockCategory is the BHive taxonomy (Load, Store, ..., Scalar/Vector).
type BlockCategory = bhive.Category

// BlockSource labels the real-world-codebase flavor of a block.
type BlockSource = bhive.Source

// Block categories.
const (
	CategoryLoad         = bhive.Load
	CategoryStore        = bhive.Store
	CategoryLoadStore    = bhive.LoadStore
	CategoryScalar       = bhive.Scalar
	CategoryVector       = bhive.Vector
	CategoryScalarVector = bhive.ScalarVector
)

// Block sources.
const (
	SourceClang    = bhive.SourceClang
	SourceOpenBLAS = bhive.SourceOpenBLAS
)

// Categories lists all six block categories.
func Categories() []BlockCategory { return bhive.Categories() }

// Sources lists the modeled source partitions.
func Sources() []BlockSource { return bhive.Sources() }

// GenerateDataset produces a deterministic synthetic dataset.
func GenerateDataset(cfg DatasetConfig) []DatasetBlock { return bhive.Generate(cfg) }

// GenerateBlocks produces an unlabeled synthetic corpus of n blocks — the
// shared recipe behind the corpus CLI modes and benchmarks.
func GenerateBlocks(n int, seed int64) []*BasicBlock {
	gen := bhive.Generate(bhive.Config{N: n, Seed: seed, SkipLabels: true})
	blocks := make([]*BasicBlock, len(gen))
	for i, g := range gen {
		blocks[i] = g.Block
	}
	return blocks
}
