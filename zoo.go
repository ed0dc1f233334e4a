package comet

import (
	"fmt"

	"github.com/comet-explain/comet/internal/wire"
)

// Self-registration of the built-in cost-model zoo. Every layer of the
// repository — the comet CLI, comet-bench, comet-serve, the experiments
// harness, and the examples — resolves models through the registry, so
// this file is the only place zoo model names are dispatched on.

func init() {
	zooParams := map[string]string(nil) // the non-neural zoo models take no parameters
	for _, def := range []ModelDef{
		{
			Name:        "c",
			Aliases:     []string{"analytical"},
			Description: "crude interpretable analytical model (paper §6) with closed-form ground truth",
			Epsilon:     AnalyticalEpsilon,
			Defaults:    zooParams,
		},
		{
			Name:        "uica",
			Description: "uiCA-like pipeline simulator surrogate (accurate, imperfect)",
			Epsilon:     0.5,
			Defaults:    zooParams,
		},
		{
			Name:        "mca",
			Description: "LLVM-MCA-style static analyzer (frontend / port-pressure / dep-chain bounds)",
			Epsilon:     0.5,
			Defaults:    zooParams,
		},
		{
			Name:        "hwsim",
			Aliases:     []string{"hardware"},
			Description: "full-fidelity out-of-order pipeline simulator (hardware stand-in)",
			Epsilon:     0.5,
			Defaults:    zooParams,
		},
		{
			Name:        "ithemal",
			Aliases:     []string{"neural"},
			Description: "hierarchical-LSTM neural cost model, trained at resolve time (or loaded with ?load=)",
			Epsilon:     0.5,
			// load= reads a server-side file; servers treat specs setting
			// it as restricted client input.
			RestrictedParams: []string{"load"},
			Defaults: map[string]string{
				"hidden": "64",   // LSTM hidden width
				"embed":  "32",   // token embedding dimension
				"epochs": "8",    // training epochs
				"train":  "1500", // synthetic training-set size
				"seed":   "1",    // weight init / shuffling seed
				"data":   "42",   // synthetic dataset seed
				"load":   "",     // load a saved model from this path instead of training
			},
		},
	} {
		def.DefaultTarget = "hsw"
		def.ArchTarget = true
		def.Factory = newZooModel
		RegisterModel(def)
	}
}

// newZooModel builds a zoo model for an effective (defaults-materialized)
// spec. This switch is the single model-name dispatch in the repository;
// everything else routes through ResolveModel.
func newZooModel(spec ModelSpec) (CostModel, float64, error) {
	arch, err := wire.ParseArch(spec.Target)
	if err != nil {
		return nil, 0, err
	}
	switch spec.Name {
	case "c":
		return NewAnalyticalModel(arch), AnalyticalEpsilon, nil
	case "uica":
		return NewUICAModel(arch), 0.5, nil
	case "mca":
		return NewMCAModel(arch), 0.5, nil
	case "hwsim":
		return NewHardwareSimulator(arch), 0.5, nil
	case "ithemal":
		m, err := newIthemalFromSpec(arch, spec)
		return m, 0.5, err
	}
	return nil, 0, fmt.Errorf("comet: zoo factory registered for unknown model %q", spec.Name)
}

// newIthemalFromSpec loads or trains the neural model per the spec's
// parameters. Training is the expensive warm-up path: resolve once and
// share the instance.
func newIthemalFromSpec(arch Arch, spec ModelSpec) (*IthemalModel, error) {
	if path := spec.Param("load", ""); path != "" {
		m, err := LoadIthemalModelFile(path)
		if err != nil {
			return nil, err
		}
		if m.Arch() != arch {
			return nil, fmt.Errorf("saved model %s targets %v, spec targets %v", path, m.Arch(), arch)
		}
		return m, nil
	}
	cfg := DefaultIthemalConfig(arch)
	var err error
	// Sanity bounds keep a single spec from demanding unbounded memory or
	// compute at warm-up; they sit far above the paper-scale settings
	// (train 4000, hidden 64) while bounding what a served spec can cost.
	if cfg.Hidden, err = boundedParam(spec, "hidden", cfg.Hidden, 1024); err != nil {
		return nil, err
	}
	if cfg.EmbedDim, err = boundedParam(spec, "embed", cfg.EmbedDim, 512); err != nil {
		return nil, err
	}
	if cfg.Epochs, err = boundedParam(spec, "epochs", cfg.Epochs, 100); err != nil {
		return nil, err
	}
	if cfg.Seed, err = spec.ParamInt64("seed", cfg.Seed); err != nil {
		return nil, err
	}
	train, err := boundedParam(spec, "train", 1500, 100000)
	if err != nil {
		return nil, err
	}
	dataSeed, err := spec.ParamInt64("data", 42)
	if err != nil {
		return nil, err
	}
	return TrainIthemalOnDataset(cfg, train, dataSeed), nil
}

// boundedParam reads a positive integer parameter with an upper sanity
// bound.
func boundedParam(spec ModelSpec, key string, def, max int) (int, error) {
	v, err := spec.ParamInt(key, def)
	if err != nil {
		return 0, err
	}
	if v <= 0 || v > max {
		return 0, fmt.Errorf("ithemal: %s=%d out of range [1, %d]", key, v, max)
	}
	return v, nil
}
