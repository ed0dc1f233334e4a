// Package nn is a small, dependency-free neural-network library: a
// tape-based reverse-mode autograd over float64 vectors, parameter
// matrices, an LSTM cell, an embedding table, and the Adam optimizer. It
// exists so the Ithemal-style hierarchical LSTM cost model (package
// ithemal) can be trained from scratch inside this repository, with no
// external ML frameworks.
//
// Gradients flow into per-tape accumulators (Tape.Grads) rather than into
// the shared parameters, so data-parallel training can run one tape per
// sample on any number of goroutines over shared weights. AddGrads sums
// the tapes' gradients in batch order, so the merged gradient — and the
// trained weights — are the same bits whatever the goroutine count.
package nn

import "math"

// node is one vector-valued value on the tape.
type node struct {
	value    []float64
	grad     []float64
	backward func()
}

// Tape records a computation for reverse-mode differentiation.
// A Tape must not be shared between goroutines.
type Tape struct {
	nodes []node
	// Grads accumulates parameter gradients produced by Backward.
	Grads map[*Param][]float64
}

// NewTape returns an empty tape.
func NewTape() *Tape {
	return &Tape{Grads: make(map[*Param][]float64)}
}

// V is a handle to a vector value on a tape.
type V struct {
	t *Tape
	i int
}

// Value returns the underlying vector (do not mutate).
func (v V) Value() []float64 { return v.t.nodes[v.i].value }

// Len returns the vector length.
func (v V) Len() int { return len(v.t.nodes[v.i].value) }

// Scalar returns the single element of a length-1 vector.
func (v V) Scalar() float64 { return v.t.nodes[v.i].value[0] }

func (t *Tape) push(value []float64, backward func()) V {
	t.nodes = append(t.nodes, node{value: value, grad: make([]float64, len(value)), backward: backward})
	return V{t: t, i: len(t.nodes) - 1}
}

// Input places a leaf vector on the tape (no gradient flows out of it).
func (t *Tape) Input(vals []float64) V {
	cp := make([]float64, len(vals))
	copy(cp, vals)
	return t.push(cp, nil)
}

// Zeros places a zero leaf of length n on the tape (e.g. initial LSTM
// state).
func (t *Tape) Zeros(n int) V { return t.push(make([]float64, n), nil) }

func (t *Tape) paramGrad(p *Param) []float64 {
	g, ok := t.Grads[p]
	if !ok {
		g = make([]float64, len(p.W))
		t.Grads[p] = g
	}
	return g
}

// Backward seeds d(loss)/d(loss) = 1 on the scalar loss node and propagates
// gradients through the tape in reverse order, accumulating parameter
// gradients into t.Grads.
func (t *Tape) Backward(loss V) {
	if loss.Len() != 1 {
		panic("nn: Backward requires a scalar loss")
	}
	t.nodes[loss.i].grad[0] = 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if t.nodes[i].backward != nil {
			t.nodes[i].backward()
		}
	}
}

// ---- elementwise operations --------------------------------------------------

// Add returns a + b (same length).
func (t *Tape) Add(a, b V) V {
	av, bv := a.Value(), b.Value()
	out := make([]float64, len(av))
	for i := range av {
		out[i] = av[i] + bv[i]
	}
	v := t.push(out, nil)
	t.nodes[v.i].backward = func() {
		g := t.nodes[v.i].grad
		ag, bg := t.nodes[a.i].grad, t.nodes[b.i].grad
		for i := range g {
			ag[i] += g[i]
			bg[i] += g[i]
		}
	}
	return v
}

// Mul returns the elementwise product a ⊙ b.
func (t *Tape) Mul(a, b V) V {
	av, bv := a.Value(), b.Value()
	out := make([]float64, len(av))
	for i := range av {
		out[i] = av[i] * bv[i]
	}
	v := t.push(out, nil)
	t.nodes[v.i].backward = func() {
		g := t.nodes[v.i].grad
		ag, bg := t.nodes[a.i].grad, t.nodes[b.i].grad
		for i := range g {
			ag[i] += g[i] * bv[i]
			bg[i] += g[i] * av[i]
		}
	}
	return v
}

// Sigmoid returns σ(x) elementwise.
func (t *Tape) Sigmoid(x V) V {
	xv := x.Value()
	out := make([]float64, len(xv))
	for i, v := range xv {
		out[i] = 1 / (1 + math.Exp(-v))
	}
	v := t.push(out, nil)
	t.nodes[v.i].backward = func() {
		g := t.nodes[v.i].grad
		xg := t.nodes[x.i].grad
		for i := range g {
			xg[i] += g[i] * out[i] * (1 - out[i])
		}
	}
	return v
}

// Tanh returns tanh(x) elementwise.
func (t *Tape) Tanh(x V) V {
	xv := x.Value()
	out := make([]float64, len(xv))
	for i, v := range xv {
		out[i] = math.Tanh(v)
	}
	v := t.push(out, nil)
	t.nodes[v.i].backward = func() {
		g := t.nodes[v.i].grad
		xg := t.nodes[x.i].grad
		for i := range g {
			xg[i] += g[i] * (1 - out[i]*out[i])
		}
	}
	return v
}

// Slice returns x[from:to] as a view-with-copy (gradient scatters back).
func (t *Tape) Slice(x V, from, to int) V {
	xv := x.Value()
	out := make([]float64, to-from)
	copy(out, xv[from:to])
	v := t.push(out, nil)
	t.nodes[v.i].backward = func() {
		g := t.nodes[v.i].grad
		xg := t.nodes[x.i].grad
		for i := range g {
			xg[from+i] += g[i]
		}
	}
	return v
}

// MeanSquaredError returns the scalar mean((pred−target)²) where target is
// a constant.
func (t *Tape) MeanSquaredError(pred V, target []float64) V {
	pv := pred.Value()
	n := float64(len(pv))
	s := 0.0
	for i := range pv {
		d := pv[i] - target[i]
		s += d * d
	}
	v := t.push([]float64{s / n}, nil)
	t.nodes[v.i].backward = func() {
		g := t.nodes[v.i].grad[0]
		pg := t.nodes[pred.i].grad
		for i := range pv {
			pg[i] += g * 2 * (pv[i] - target[i]) / n
		}
	}
	return v
}

// ScaleConst returns c·x for a constant c.
func (t *Tape) ScaleConst(x V, c float64) V {
	xv := x.Value()
	out := make([]float64, len(xv))
	for i := range xv {
		out[i] = c * xv[i]
	}
	v := t.push(out, nil)
	t.nodes[v.i].backward = func() {
		g := t.nodes[v.i].grad
		xg := t.nodes[x.i].grad
		for i := range g {
			xg[i] += c * g[i]
		}
	}
	return v
}
