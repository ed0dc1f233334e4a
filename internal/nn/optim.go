package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba 2015) over a fixed parameter set.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	ClipNorm float64 // global gradient-norm clip; 0 disables

	params []*Param
	step   int
}

// NewAdam builds an optimizer with the standard defaults (β₁ = 0.9,
// β₂ = 0.999, ε = 1e-8, clip 5).
func NewAdam(lr float64, params []*Param) *Adam {
	for _, p := range params {
		if p.m == nil {
			p.m = make([]float64, len(p.W))
			p.v = make([]float64, len(p.W))
		}
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5, params: params}
}

// Step applies one update from accumulated gradients. grads maps parameters
// to gradient slices (as produced by Tape.Backward, possibly merged across
// tapes); missing parameters are skipped.
func (a *Adam) Step(grads map[*Param][]float64) {
	a.step++
	scale := 1.0
	if a.ClipNorm > 0 {
		norm := 0.0
		for _, p := range a.params {
			g, ok := grads[p]
			if !ok {
				continue
			}
			for _, x := range g {
				norm += x * x
			}
		}
		norm = math.Sqrt(norm)
		if norm > a.ClipNorm {
			scale = a.ClipNorm / norm
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range a.params {
		g, ok := grads[p]
		if !ok {
			continue
		}
		for i := range p.W {
			gi := g[i] * scale
			p.m[i] = a.Beta1*p.m[i] + (1-a.Beta1)*gi
			p.v[i] = a.Beta2*p.v[i] + (1-a.Beta2)*gi*gi
			mHat := p.m[i] / bc1
			vHat := p.v[i] / bc2
			p.W[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}

// AddGrads adds one sample's gradients into dst, visiting parameters in
// params order. Adding samples in batch order makes data-parallel training
// bit-for-bit the same at any goroutine count.
func AddGrads(dst, sample map[*Param][]float64, params []*Param) {
	for _, p := range params {
		g, ok := sample[p]
		if !ok {
			continue
		}
		d, ok := dst[p]
		if !ok {
			d = make([]float64, len(g))
			dst[p] = d
		}
		for i := range g {
			d[i] += g[i]
		}
	}
}

// ScaleGrads multiplies every gradient by c (e.g. 1/batchSize).
func ScaleGrads(grads map[*Param][]float64, c float64) {
	for _, g := range grads {
		for i := range g {
			g[i] *= c
		}
	}
}
