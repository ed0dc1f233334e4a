// Package mca implements a static-analysis cost model in the style of
// LLVM-MCA / IACA / OSACA — the third traditional model family the paper
// discusses (§1). Instead of simulating execution cycle by cycle, it
// computes closed-form resource bounds from the instruction stream:
//
//	throughput = max( uops / issue width,
//	                  per-port pressure,
//	                  loop-carried dependency-chain latency )
//
// with port pressure distributed fractionally across eligible ports (the
// optimistic assumption real static analyzers make). The paper notes such
// models "often have a high error in their predictions" relative to
// simulators like uiCA — a property this implementation reproduces, which
// makes it a useful third subject for COMET's comparative explanations.
package mca

import (
	"math"

	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/x86"
)

// Model is the static-analysis throughput model.
type Model struct {
	arch   x86.Arch
	params x86.ArchParams
}

var (
	_ costmodel.Model      = (*Model)(nil)
	_ costmodel.CheapQuery = (*Model)(nil)
)

// New builds the static analyzer for a microarchitecture.
func New(arch x86.Arch) *Model {
	return &Model{arch: arch, params: x86.Params(arch)}
}

// Name implements costmodel.Model.
func (m *Model) Name() string { return "mca" }

// Arch implements costmodel.Model.
func (m *Model) Arch() x86.Arch { return m.arch }

// Predict implements costmodel.Model. Invalid blocks yield +Inf.
func (m *Model) Predict(b *x86.BasicBlock) float64 {
	if b == nil || b.Len() == 0 {
		return math.Inf(1)
	}
	var buf [16]deps.InstAccess
	sum, err := deps.AppendSummary(buf[:0], b, deps.Options{})
	if err != nil {
		return math.Inf(1)
	}
	uops := 0
	pressure := make([]float64, m.params.NumPorts)
	lat := make([]float64, len(sum))
	for i := range sum {
		a := &sum[i]
		perf := x86.SpecPerf(m.arch, a.Spec, b.Instructions[i])
		loads, stores := a.MemUops()
		hasCompute := true
		switch a.Spec.Class {
		case x86.ClassMov, x86.ClassVecMov, x86.ClassPush, x86.ClassPop:
			if loads+stores > 0 {
				hasCompute = false
			}
		}
		if hasCompute {
			uops++
			occ := 1.0
			if perf.Unpipelined {
				occ = math.Ceil(perf.RThru)
			}
			spread(pressure, perf.Ports, occ)
		}
		for l := 0; l < loads; l++ {
			uops++
			spread(pressure, m.params.LoadPorts, 1)
		}
		for s := 0; s < stores; s++ {
			uops += 2
			spread(pressure, m.params.StoreDataPts, 1)
			spread(pressure, m.params.StoreAddrPts, 1)
		}
		// The chain latency ignores load latency unless the instruction
		// loads, like llvm-mca's default.
		lat[i] = float64(perf.Lat)
		if loads > 0 {
			lat[i] += float64(m.params.LoadLat)
		}
	}

	bound := float64(uops) / float64(m.params.IssueWidth)
	for _, p := range pressure {
		if p > bound {
			bound = p
		}
	}
	if chain := chainBound(sum, lat); chain > bound {
		bound = chain
	}
	return bound
}

// CheapQuery implements costmodel.CheapQuery: the closed-form bound costs
// less than rendering the block's cache key.
func (m *Model) CheapQuery() {}

// spread divides occupancy evenly across the eligible ports — static
// analyzers assume an ideal scheduler.
func spread(pressure []float64, ports x86.PortSet, occupancy float64) {
	n := ports.Count()
	if n == 0 {
		return
	}
	share := occupancy / float64(n)
	for p := 0; p < len(pressure); p++ {
		if ports.Contains(p) {
			pressure[p] += share
		}
	}
}

// chainBound computes the longest loop-carried dependency cycle by
// unrolling the block twice and taking the longest path that crosses the
// iteration boundary, over true (RAW) dependencies with per-instruction
// latencies lat. This is the static analogue of the simulator's
// dependency pacing. Within an iteration a read depends on its location's
// last earlier writer; across the back edge it depends on the block's last
// writer of the location, the only write that survives the iteration.
func chainBound(s deps.Summary, lat []float64) float64 {
	n := len(s)
	dist := make([]float64, 2*n)
	for i := range dist {
		dist[i] = lat[i%n]
	}
	// feed relaxes instruction j+dstOff from the last writer, among
	// s[:end], of each location j reads, taken at index writer+srcOff.
	feed := func(j, end, srcOff, dstOff int) {
		want := s[j].Reads
		for i := end - 1; i >= 0 && want != 0; i-- {
			if hit := deps.Shared(s[i].Writes&want, &s[i], &s[j]); hit != 0 {
				want &^= hit
				if d := dist[i+srcOff] + lat[j]; d > dist[j+dstOff] {
					dist[j+dstOff] = d
				}
			}
		}
	}
	for j := range n {
		feed(j, j, 0, 0)
	}
	for j := range n {
		feed(j, n, 0, n) // the back edge
		feed(j, j, n, n)
	}
	best := 0.0
	for i := n; i < 2*n; i++ {
		if gain := dist[i] - dist[i%n]; gain > best {
			best = gain
		}
	}
	return best
}
