package comet

import (
	"io"

	"github.com/comet-explain/comet/internal/analytical"
	"github.com/comet-explain/comet/internal/hwsim"
	"github.com/comet-explain/comet/internal/ithemal"
	"github.com/comet-explain/comet/internal/mca"
	"github.com/comet-explain/comet/internal/uica"
	"github.com/comet-explain/comet/internal/x86"
)

// The cost-model zoo. All models implement CostModel and are safe for
// concurrent Predict calls.

// AnalyticalModel is the crude interpretable cost model C of the paper's
// Section 6 — max over per-instruction, per-dependency, and
// instruction-count costs — with closed-form ground-truth explanations.
type AnalyticalModel = analytical.Model

// NewAnalyticalModel builds C for a microarchitecture.
func NewAnalyticalModel(arch Arch) *AnalyticalModel { return analytical.New(arch) }

// AnalyticalEpsilon is the ε the paper pairs with C: a quarter unit, the
// model's minimum prediction change.
const AnalyticalEpsilon = analytical.Epsilon

// UICAModel is the uiCA surrogate: the shared pipeline simulator at a
// coarsened fidelity, giving an accurate but imperfect simulation-based
// model in place of the real uiCA tool.
type UICAModel = uica.Model

// NewUICAModel builds the uiCA surrogate for a microarchitecture.
func NewUICAModel(arch Arch) *UICAModel { return uica.New(arch) }

// HardwareSimulator is the full-fidelity out-of-order pipeline simulator
// used as the stand-in for real hardware measurements.
type HardwareSimulator = hwsim.Simulator

// NewHardwareSimulator builds the hardware stand-in for a microarchitecture.
func NewHardwareSimulator(arch Arch) *HardwareSimulator {
	return hwsim.New(hwsim.HardwareConfig(arch))
}

// IthemalModel is the Ithemal surrogate: a hierarchical LSTM throughput
// model (token LSTM → instruction LSTM → linear regressor) trained with
// the built-in pure-Go neural-network library.
type IthemalModel = ithemal.Model

// IthemalConfig selects the neural model's architecture and training
// hyperparameters.
type IthemalConfig = ithemal.Config

// TrainingSample is one (block, measured throughput) pair.
type TrainingSample = ithemal.Sample

// DefaultIthemalConfig returns the configuration used by the experiment
// harness (embed 32, hidden 64, Adam 2e-3).
func DefaultIthemalConfig(arch Arch) IthemalConfig { return ithemal.DefaultConfig(arch) }

// NewIthemalModel builds an untrained neural cost model.
func NewIthemalModel(cfg IthemalConfig) *IthemalModel { return ithemal.New(cfg) }

// TrainIthemalOnDataset generates a labeled synthetic dataset and trains a
// fresh Ithemal-style model on it — the one-call path used by the examples.
func TrainIthemalOnDataset(cfg IthemalConfig, trainBlocks int, datasetSeed int64) *IthemalModel {
	blocks := GenerateDataset(DatasetConfig{
		N: trainBlocks, MinInstrs: 1, MaxInstrs: 12, Seed: datasetSeed,
	})
	samples := make([]TrainingSample, len(blocks))
	for i, b := range blocks {
		samples[i] = TrainingSample{Block: b.Block, Throughput: b.Throughput[cfg.Arch]}
	}
	m := ithemal.New(cfg)
	m.Train(samples, nil)
	return m
}

// LoadIthemalModel reads a model saved with IthemalModel.Save.
func LoadIthemalModel(r io.Reader) (*IthemalModel, error) { return ithemal.Load(r) }

// LoadIthemalModelFile reads a saved model from a file.
func LoadIthemalModelFile(path string) (*IthemalModel, error) { return ithemal.LoadFile(path) }

// MCAModel is a static-analysis cost model in the style of LLVM-MCA /
// IACA / OSACA: closed-form frontend, port-pressure, and dependency-chain
// bounds. As the paper notes for this model family, it errs more than the
// simulation-based models — a useful third subject for comparative
// explanations.
type MCAModel = mca.Model

// NewMCAModel builds the static analyzer for a microarchitecture.
func NewMCAModel(arch Arch) *MCAModel { return mca.New(arch) }

// PipelineReport attributes a block's simulated throughput to its binding
// resource (frontend, a specific port, or the dependency chain).
type PipelineReport = hwsim.Report

// AnalyzeBlock runs the hardware-grade simulator's bottleneck analysis.
func AnalyzeBlock(arch Arch, b *BasicBlock) (PipelineReport, error) {
	return NewHardwareSimulator(arch).Analyze(b)
}

// InstructionThroughput exposes the embedded per-instruction reciprocal
// throughput table (the cost_inst of the analytical model).
func InstructionThroughput(arch Arch, inst Instruction) float64 {
	return x86.InstThroughput(arch, inst)
}
