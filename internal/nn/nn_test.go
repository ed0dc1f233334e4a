package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numericalGrad perturbs one weight and measures the loss difference.
func numericalGrad(lossFn func() float64, w *float64) float64 {
	const h = 1e-5
	orig := *w
	*w = orig + h
	up := lossFn()
	*w = orig - h
	down := lossFn()
	*w = orig
	return (up - down) / (2 * h)
}

func TestMatVecGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewParam("w", 3, 4).InitXavier(rng)
	x := []float64{0.5, -1, 2, 0.25}
	target := []float64{1, -0.5, 0.75}

	loss := func() float64 {
		tape := NewTape()
		out := tape.MatVec(p, tape.Input(x))
		return tape.MeanSquaredError(out, target).Scalar()
	}

	tape := NewTape()
	out := tape.MatVec(p, tape.Input(x))
	l := tape.MeanSquaredError(out, target)
	tape.Backward(l)
	analytic := tape.Grads[p]

	for i := range p.W {
		num := numericalGrad(loss, &p.W[i])
		if math.Abs(num-analytic[i]) > 1e-6*(1+math.Abs(num)) {
			t.Errorf("w[%d]: analytic %v vs numerical %v", i, analytic[i], num)
		}
	}
}

func TestLSTMGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLSTM("cell", 3, 4, rng)
	out := NewParam("out", 1, 4).InitXavier(rng)
	xs := [][]float64{{0.1, -0.2, 0.3}, {0.5, 0.4, -0.1}, {-0.3, 0.2, 0.6}}
	target := []float64{0.7}

	lossFn := func() float64 {
		tape := NewTape()
		var seq []V
		for _, x := range xs {
			seq = append(seq, tape.Input(x))
		}
		h := l.Run(tape, seq)
		pred := tape.MatVec(out, h)
		return tape.MeanSquaredError(pred, target).Scalar()
	}

	tape := NewTape()
	var seq []V
	for _, x := range xs {
		seq = append(seq, tape.Input(x))
	}
	h := l.Run(tape, seq)
	pred := tape.MatVec(out, h)
	loss := tape.MeanSquaredError(pred, target)
	tape.Backward(loss)

	for _, p := range append(l.Params(), out) {
		analytic := tape.Grads[p]
		if analytic == nil {
			t.Fatalf("no gradient for %s", p.Name)
		}
		// Spot-check a sample of weights for speed.
		for i := 0; i < len(p.W); i += 7 {
			num := numericalGrad(lossFn, &p.W[i])
			if math.Abs(num-analytic[i]) > 1e-5*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: analytic %v vs numerical %v", p.Name, i, analytic[i], num)
			}
		}
	}
}

func TestEmbeddingGradientFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	emb := NewParam("emb", 5, 3).InitXavier(rng)
	tape := NewTape()
	v := tape.Lookup(emb, 2)
	l := tape.MeanSquaredError(v, []float64{1, 1, 1})
	tape.Backward(l)
	g := tape.Grads[emb]
	for i := 0; i < emb.Rows; i++ {
		rowNonZero := false
		for c := 0; c < emb.Cols; c++ {
			if g[i*emb.Cols+c] != 0 {
				rowNonZero = true
			}
		}
		if (i == 2) != rowNonZero {
			t.Errorf("row %d gradient presence = %v, want %v", i, rowNonZero, i == 2)
		}
	}
}

func TestLookupOutOfVocabulary(t *testing.T) {
	emb := NewParam("emb", 4, 2)
	emb.W[0], emb.W[1] = 9, 9
	tape := NewTape()
	if got := tape.Lookup(emb, 99).Value()[0]; got != 9 {
		t.Errorf("OOV lookup should hit bucket 0, got %v", got)
	}
}

func TestElementwiseOps(t *testing.T) {
	tape := NewTape()
	a := tape.Input([]float64{1, 2})
	b := tape.Input([]float64{3, 4})
	if got := tape.Add(a, b).Value(); got[0] != 4 || got[1] != 6 {
		t.Errorf("Add = %v", got)
	}
	if got := tape.Mul(a, b).Value(); got[0] != 3 || got[1] != 8 {
		t.Errorf("Mul = %v", got)
	}
	if got := tape.Sigmoid(tape.Input([]float64{0})).Value()[0]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := tape.Tanh(tape.Input([]float64{0})).Value()[0]; got != 0 {
		t.Errorf("Tanh(0) = %v", got)
	}
	if got := tape.Slice(tape.Input([]float64{1, 2, 3, 4}), 1, 3).Value(); got[0] != 2 || got[1] != 3 {
		t.Errorf("Slice = %v", got)
	}
	if got := tape.ScaleConst(a, 2).Value(); got[0] != 2 || got[1] != 4 {
		t.Errorf("ScaleConst = %v", got)
	}
}

func TestPropertyElementwiseGradients(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewParam("p", 1, 3).InitXavier(rng)
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		target := []float64{rng.NormFloat64()}

		lossFn := func() float64 {
			tape := NewTape()
			xs := tape.Input(x)
			h := tape.Tanh(tape.Mul(xs, tape.Sigmoid(xs)))
			return tape.MeanSquaredError(tape.MatVec(p, h), target).Scalar()
		}
		tape := NewTape()
		xs := tape.Input(x)
		h := tape.Tanh(tape.Mul(xs, tape.Sigmoid(xs)))
		loss := tape.MeanSquaredError(tape.MatVec(p, h), target)
		tape.Backward(loss)
		analytic := tape.Grads[p]
		for i := range p.W {
			num := numericalGrad(lossFn, &p.W[i])
			if math.Abs(num-analytic[i]) > 1e-5*(1+math.Abs(num)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAdamReducesLossOnRegression(t *testing.T) {
	// Fit y = w·x on random data; loss must fall by >100×.
	rng := rand.New(rand.NewSource(4))
	w := NewParam("w", 1, 3).InitXavier(rng)
	b := NewParam("b", 1, 1)
	opt := NewAdam(0.05, []*Param{w, b})

	trueW := []float64{2, -1, 0.5}
	sample := func() ([]float64, float64) {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y := 0.3
		for i := range x {
			y += trueW[i] * x[i]
		}
		return x, y
	}

	lossAt := func() float64 {
		total := 0.0
		rng2 := rand.New(rand.NewSource(99))
		for i := 0; i < 50; i++ {
			x := []float64{rng2.NormFloat64(), rng2.NormFloat64(), rng2.NormFloat64()}
			y := 0.3
			for j := range x {
				y += trueW[j] * x[j]
			}
			tape := NewTape()
			pred := tape.AddBias(tape.MatVec(w, tape.Input(x)), b)
			total += tape.MeanSquaredError(pred, []float64{y}).Scalar()
		}
		return total / 50
	}

	before := lossAt()
	for step := 0; step < 400; step++ {
		tape := NewTape()
		x, y := sample()
		pred := tape.AddBias(tape.MatVec(w, tape.Input(x)), b)
		loss := tape.MeanSquaredError(pred, []float64{y})
		tape.Backward(loss)
		opt.Step(tape.Grads)
	}
	after := lossAt()
	if after > before/100 {
		t.Errorf("Adam failed to fit linear data: %.5f → %.5f", before, after)
	}
}

func TestLSTMCanOverfitTinySequenceTask(t *testing.T) {
	// Distinguish two token sequences; the model must overfit quickly.
	rng := rand.New(rand.NewSource(5))
	emb := NewParam("emb", 4, 4).InitXavier(rng)
	cell := NewLSTM("cell", 4, 8, rng)
	out := NewParam("out", 1, 8).InitXavier(rng)
	params := append([]*Param{emb, out}, cell.Params()...)
	opt := NewAdam(0.02, params)

	data := []struct {
		toks []int
		y    float64
	}{
		{[]int{0, 1, 2}, 1.0},
		{[]int{2, 1, 0}, -1.0},
		{[]int{3, 3, 1}, 0.5},
	}
	forward := func(tape *Tape, toks []int) V {
		var seq []V
		for _, tok := range toks {
			seq = append(seq, tape.Lookup(emb, tok))
		}
		return tape.MatVec(out, cell.Run(tape, seq))
	}

	for step := 0; step < 500; step++ {
		for _, d := range data {
			tape := NewTape()
			loss := tape.MeanSquaredError(forward(tape, d.toks), []float64{d.y})
			tape.Backward(loss)
			opt.Step(tape.Grads)
		}
	}
	for _, d := range data {
		tape := NewTape()
		pred := forward(tape, d.toks).Scalar()
		if math.Abs(pred-d.y) > 0.15 {
			t.Errorf("sequence %v: pred %.3f, want %.3f", d.toks, pred, d.y)
		}
	}
}

func TestMergeGradsDeterministic(t *testing.T) {
	p := NewParam("p", 1, 2)
	w1 := map[*Param][]float64{p: {1, 2}}
	w2 := map[*Param][]float64{p: {10, 20}}
	dst := map[*Param][]float64{}
	AddGrads(dst, w1, []*Param{p})
	AddGrads(dst, w2, []*Param{p})
	if dst[p][0] != 11 || dst[p][1] != 22 {
		t.Errorf("AddGrads = %v", dst[p])
	}
	ScaleGrads(dst, 0.5)
	if dst[p][0] != 5.5 {
		t.Errorf("ScaleGrads = %v", dst[p])
	}
}

func TestGradientClipping(t *testing.T) {
	p := NewParam("p", 1, 1)
	opt := NewAdam(1.0, []*Param{p})
	opt.ClipNorm = 1
	before := p.W[0]
	opt.Step(map[*Param][]float64{p: {1e9}})
	// With clipping the step magnitude stays ≈ lr (Adam normalizes anyway);
	// mostly we check nothing explodes to NaN/Inf.
	if math.IsNaN(p.W[0]) || math.IsInf(p.W[0], 0) || math.Abs(p.W[0]-before) > 2 {
		t.Errorf("clipped step went wild: %v → %v", before, p.W[0])
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Backward on a non-scalar should panic")
		}
	}()
	tape := NewTape()
	tape.Backward(tape.Input([]float64{1, 2}))
}

func TestLSTMRunEmptySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cell := NewLSTM("cell", 3, 4, rng)
	tape := NewTape()
	h := cell.Run(tape, nil)
	for _, v := range h.Value() {
		if v != 0 {
			t.Errorf("empty-sequence hidden state should be zero, got %v", h.Value())
		}
	}
}
