// Package ithemal implements the reproduction's stand-in for Ithemal
// (Mendis et al. 2019): a hierarchical LSTM throughput model (Appendix H.2
// of the COMET paper). Token embeddings of each instruction are combined by
// a first LSTM into instruction embeddings; a second LSTM combines those
// into a block embedding; a linear regressor maps it to a throughput.
//
// Unlike the original (a PyTorch model trained on hardware-measured BHive),
// this model is trained inside the repository with the pure-Go nn package
// on synthetic blocks labeled by the hwsim hardware stand-in. It is
// genuinely learned — its error profile (around 10-20% MAPE, versus the
// uiCA surrogate's few percent) and its bias toward coarse block features
// are emergent properties of training, exactly the regime the paper
// studies.
package ithemal

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/nn"
	"github.com/comet-explain/comet/internal/stats"
	"github.com/comet-explain/comet/internal/x86"
)

// Config selects the architecture and training hyperparameters.
type Config struct {
	Arch      x86.Arch
	EmbedDim  int
	Hidden    int
	LR        float64
	Epochs    int
	BatchSize int
	Seed      int64 // weight init and shuffling
}

// DefaultConfig returns the configuration used by the experiment harness.
func DefaultConfig(arch x86.Arch) Config {
	return Config{
		Arch:      arch,
		EmbedDim:  32,
		Hidden:    64,
		LR:        2e-3,
		Epochs:    8,
		BatchSize: 32,
		Seed:      1,
	}
}

// Sample is one training example: a block and its measured throughput.
type Sample struct {
	Block      *x86.BasicBlock
	Throughput float64
}

// Model is the hierarchical LSTM cost model.
type Model struct {
	cfg       Config
	vocab     map[string]int
	emb       *nn.Param
	instLSTM  *nn.LSTM
	blockLSTM *nn.LSTM
	out       *nn.Param
	bias      *nn.Param
}

var _ costmodel.Model = (*Model)(nil)

// New builds an untrained model with deterministic initialization.
func New(cfg Config) *Model {
	if cfg.EmbedDim == 0 || cfg.Hidden == 0 {
		def := DefaultConfig(cfg.Arch)
		def.Arch = cfg.Arch
		if cfg.Seed != 0 {
			def.Seed = cfg.Seed
		}
		cfg = def
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := buildVocab()
	m := &Model{
		cfg:       cfg,
		vocab:     vocab,
		emb:       nn.NewParam("emb", len(vocab), cfg.EmbedDim).InitXavier(rng),
		instLSTM:  nn.NewLSTM("inst", cfg.EmbedDim, cfg.Hidden, rng),
		blockLSTM: nn.NewLSTM("block", cfg.Hidden, cfg.Hidden, rng),
		out:       nn.NewParam("out", 1, cfg.Hidden).InitXavier(rng),
		bias:      nn.NewParam("bias", 1, 1),
	}
	return m
}

// Name implements costmodel.Model.
func (m *Model) Name() string { return "ithemal" }

// Arch implements costmodel.Model.
func (m *Model) Arch() x86.Arch { return m.cfg.Arch }

// params returns all trainable parameters in a fixed order.
func (m *Model) params() []*nn.Param {
	ps := []*nn.Param{m.emb}
	ps = append(ps, m.instLSTM.Params()...)
	ps = append(ps, m.blockLSTM.Params()...)
	ps = append(ps, m.out, m.bias)
	return ps
}

// buildVocab enumerates the token vocabulary deterministically from the ISA
// tables: every opcode, every register name, plus structural tokens.
func buildVocab() map[string]int {
	var tokens []string
	tokens = append(tokens, "<unk>", "<imm>", "[", "]", "<sep>", "</s>",
		"scale2", "scale4", "scale8", "d0", "dsmall", "dbig", "dneg")
	tokens = append(tokens, x86.Opcodes()...)
	var regs []string
	for _, fam := range x86.GPFamilies() {
		for _, size := range []int{x86.Size8, x86.Size16, x86.Size32, x86.Size64} {
			regs = append(regs, x86.Reg{Family: fam, Size: size}.String())
		}
	}
	for _, fam := range x86.VecFamilies() {
		for _, size := range []int{x86.Size128, x86.Size256} {
			regs = append(regs, x86.Reg{Family: fam, Size: size}.String())
		}
	}
	sort.Strings(regs)
	tokens = append(tokens, regs...)
	vocab := make(map[string]int, len(tokens))
	for _, tok := range tokens {
		if _, ok := vocab[tok]; !ok {
			vocab[tok] = len(vocab)
		}
	}
	return vocab
}

func dispBucket(d int64) string {
	switch {
	case d == 0:
		return "d0"
	case d < 0:
		return "dneg"
	case d <= 64:
		return "dsmall"
	default:
		return "dbig"
	}
}

// TokenizeInstruction canonicalizes one instruction into tokens (exported
// for tests and the dataset-exploration example).
func TokenizeInstruction(inst x86.Instruction) []string {
	toks := []string{inst.Opcode}
	for _, op := range inst.Operands {
		toks = append(toks, "<sep>")
		switch op.Kind {
		case x86.KindReg:
			toks = append(toks, op.Reg.String())
		case x86.KindImm:
			toks = append(toks, "<imm>")
		case x86.KindMem, x86.KindAddr:
			toks = append(toks, "[")
			if !op.Mem.Base.IsZero() {
				toks = append(toks, op.Mem.Base.String())
			}
			if !op.Mem.Index.IsZero() {
				toks = append(toks, op.Mem.Index.String())
				if op.Mem.Scale > 1 {
					toks = append(toks, fmt.Sprintf("scale%d", op.Mem.Scale))
				}
			}
			toks = append(toks, dispBucket(op.Mem.Disp), "]")
		}
	}
	toks = append(toks, "</s>")
	return toks
}

func (m *Model) tokenIDs(inst x86.Instruction) []int {
	toks := TokenizeInstruction(inst)
	ids := make([]int, len(toks))
	for i, tok := range toks {
		id, ok := m.vocab[tok]
		if !ok {
			id = m.vocab["<unk>"]
		}
		ids[i] = id
	}
	return ids
}

// forward runs the hierarchical network on one block.
func (m *Model) forward(tape *nn.Tape, b *x86.BasicBlock) nn.V {
	var instEmbeds []nn.V
	for _, inst := range b.Instructions {
		var seq []nn.V
		for _, id := range m.tokenIDs(inst) {
			seq = append(seq, tape.Lookup(m.emb, id))
		}
		instEmbeds = append(instEmbeds, m.instLSTM.Run(tape, seq))
	}
	blockEmbed := m.blockLSTM.Run(tape, instEmbeds)
	return tape.AddBias(tape.MatVec(m.out, blockEmbed), m.bias)
}

// Predict implements costmodel.Model. It is safe for concurrent use (the
// forward pass only reads the weights). Predictions are clamped to the
// minimum physical throughput of a 1-instruction block.
func (m *Model) Predict(b *x86.BasicBlock) float64 {
	if b == nil || b.Len() == 0 {
		return 0
	}
	tape := nn.NewTape()
	pred := m.forward(tape, b).Scalar()
	if pred < 0.25 {
		pred = 0.25
	}
	return pred
}

// TrainResult summarizes a training run.
type TrainResult struct {
	EpochLoss []float64 // mean normalized loss per epoch
	FinalMAPE float64   // MAPE on the training samples after the last epoch
}

// Train fits the model to the samples. Loss is a normalized squared error,
// (pred−y)²/(1+y)², which weighs relative error similarly across the wide
// dynamic range of block costs (0.25 to tens of cycles). Training is
// data-parallel over GOMAXPROCS goroutines, and the trained weights are
// the same bits at every GOMAXPROCS; progress (if non-nil) is called
// after each epoch.
func (m *Model) Train(samples []Sample, progress func(epoch int, loss float64)) TrainResult {
	params := m.params()
	opt := nn.NewAdam(m.cfg.LR, params)
	rng := rand.New(rand.NewSource(m.cfg.Seed + 1000))
	res := TrainResult{}

	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		perm := rng.Perm(len(samples))
		epochLoss, batches := 0.0, 0
		for start := 0; start < len(perm); start += m.cfg.BatchSize {
			end := start + m.cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			batch := perm[start:end]
			loss := m.trainBatch(opt, params, samples, batch)
			epochLoss += loss
			batches++
		}
		epochLoss /= float64(batches)
		res.EpochLoss = append(res.EpochLoss, epochLoss)
		if progress != nil {
			progress(epoch, epochLoss)
		}
	}
	res.FinalMAPE = m.MAPE(samples)
	return res
}

// trainBatch computes and applies one batch update, returning the mean
// normalized loss of the batch. Samples run on GOMAXPROCS goroutines, and
// each sample's gradients join the batch total in batch order as soon as
// every earlier sample's have, so the goroutine count changes no bit of
// the update and about two gradient maps per goroutine are alive at once.
func (m *Model) trainBatch(opt *nn.Adam, params []*nn.Param, samples []Sample, batch []int) float64 {
	type result struct {
		grads map[*nn.Param][]float64
		loss  float64
	}
	// Goroutine w runs samples w, w+workers, ... and hands each over on
	// its own channel, so receiving sample k from out[k%workers] merges in
	// batch order.
	workers := min(runtime.GOMAXPROCS(0), len(batch))
	out := make([]chan result, workers)
	for w := range out {
		out[w] = make(chan result, 1)
		go func() {
			for k := w; k < len(batch); k += workers {
				s := samples[batch[k]]
				tape := nn.NewTape()
				pred := m.forward(tape, s.Block)
				scale := 1 / (1 + s.Throughput)
				loss := tape.MeanSquaredError(tape.ScaleConst(pred, scale), []float64{s.Throughput * scale})
				tape.Backward(loss)
				out[w] <- result{tape.Grads, loss.Scalar()}
			}
		}()
	}

	total := make(map[*nn.Param][]float64)
	loss := 0.0
	for k := range batch {
		r := <-out[k%workers]
		nn.AddGrads(total, r.grads, params)
		loss += r.loss
	}
	nn.ScaleGrads(total, 1/float64(len(batch)))
	opt.Step(total)
	return loss / float64(len(batch))
}

// MAPE evaluates the model's mean absolute percentage error on samples.
func (m *Model) MAPE(samples []Sample) float64 {
	blocks := make([]*x86.BasicBlock, len(samples))
	actuals := make([]float64, len(samples))
	for i, s := range samples {
		blocks[i], actuals[i] = s.Block, s.Throughput
	}
	preds := make([]float64, len(samples))
	costmodel.PredictThrough(nil, m, blocks, 0, 0, preds)
	return stats.MAPE(preds, actuals)
}

// VocabSize reports the tokenizer vocabulary size.
func (m *Model) VocabSize() int { return len(m.vocab) }
