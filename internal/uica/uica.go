// Package uica provides the reproduction's stand-in for uiCA (Abel &
// Reineke 2022), the accurate hand-engineered simulation-based throughput
// model the paper compares Ithemal against.
//
// The real uiCA is a detailed Python model of Intel frontends; here the
// surrogate is the shared pipeline simulator run at a deliberately
// coarsened fidelity (hwsim.ApproxConfig): store-address port pressure is
// ignored, load latency is one cycle optimistic, and divides are slightly
// cheap. This preserves uiCA's defining property for the paper's
// experiments — a *low-error* (but not perfect) simulation-based model that
// COMET treats as a black box — with its residual error concentrated on
// store- and divide-bound blocks, just as real analytical models deviate
// from silicon on microarchitectural corner cases.
package uica

import (
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/hwsim"
	"github.com/comet-explain/comet/internal/x86"
)

// Model is the uiCA-like simulation-based cost model.
type Model struct {
	sim *hwsim.Simulator
}

var _ costmodel.Model = (*Model)(nil)

// New builds the uiCA surrogate for a microarchitecture.
func New(arch x86.Arch) *Model {
	return &Model{sim: hwsim.New(hwsim.ApproxConfig(arch))}
}

// Name implements costmodel.Model.
func (m *Model) Name() string { return "uica" }

// Arch implements costmodel.Model.
func (m *Model) Arch() x86.Arch { return m.sim.Arch() }

// Predict implements costmodel.Model.
func (m *Model) Predict(b *x86.BasicBlock) float64 { return m.sim.Throughput(b) }
