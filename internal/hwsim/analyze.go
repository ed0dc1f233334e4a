package hwsim

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/comet-explain/comet/internal/x86"
)

// Report explains where the simulated pipeline spends its capacity — the
// kind of insight the paper credits uiCA with ("it can output detailed
// insights into its process ... such as where in the CPU's pipeline its
// simulator identified a bottleneck"). The experiment harness does not
// need it; it exists for users debugging cost-model explanations against
// microarchitectural reality.
type Report struct {
	Throughput    float64         // steady-state cycles per iteration
	FrontendBound float64         // uops / issue width
	PortBound     float64         // busiest execution port, cycles/iteration
	PortPressure  map[int]float64 // per-port busy cycles per iteration
	DepChainBound float64         // throughput with structural hazards removed
	Bottleneck    string          // "frontend", "port N", or "dependency chain"
}

// String renders the report as a short multi-line summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "throughput: %.2f cycles/iter (bottleneck: %s)\n", r.Throughput, r.Bottleneck)
	fmt.Fprintf(&b, "  frontend bound:  %.2f\n", r.FrontendBound)
	fmt.Fprintf(&b, "  dep-chain bound: %.2f\n", r.DepChainBound)
	ports := make([]int, 0, len(r.PortPressure))
	for p := range r.PortPressure {
		ports = append(ports, p)
	}
	sort.Ints(ports)
	for _, p := range ports {
		if r.PortPressure[p] > 0 {
			fmt.Fprintf(&b, "  port %d pressure: %.2f\n", p, r.PortPressure[p])
		}
	}
	return b.String()
}

// Analyze simulates the block and attributes its throughput to the
// binding resource: the frontend, the busiest execution port, or the
// loop-carried dependency chain.
func (s *Simulator) Analyze(b *x86.BasicBlock) (Report, error) {
	plans, ok := s.plan(b, nil)
	if !ok {
		return Report{}, fmt.Errorf("hwsim: cannot analyze invalid block")
	}
	r := Report{PortPressure: map[int]float64{}}
	r.Throughput = s.simulate(plans)

	// Frontend bound: total uops per iteration over the issue width.
	uops := 0
	for _, p := range plans {
		uops += p.uops
	}
	r.FrontendBound = float64(uops) / float64(s.params.IssueWidth)

	// Port pressure: bin one steady-state iteration's uops onto ports,
	// ignoring data dependencies (pure capacity accounting). Uops with the
	// fewest eligible ports are placed first — the standard
	// most-constrained-first heuristic, which approximates the balanced
	// assignment an out-of-order scheduler converges to.
	type uop struct {
		ports x86.PortSet
		occ   float64
	}
	var uopsList []uop
	for _, p := range plans {
		for l := 0; l < p.loads; l++ {
			uopsList = append(uopsList, uop{s.params.LoadPorts, 1})
		}
		if p.hasCompute {
			uopsList = append(uopsList, uop{p.perf.Ports, p.occupancy})
		}
		for st := 0; st < p.stores; st++ {
			uopsList = append(uopsList, uop{s.params.StoreDataPts, 1})
			if s.cfg.ModelStoreAddr {
				uopsList = append(uopsList, uop{s.params.StoreAddrPts, 1})
			}
		}
	}
	sort.SliceStable(uopsList, func(i, j int) bool {
		return uopsList[i].ports.Count() < uopsList[j].ports.Count()
	})
	busy := make([]float64, s.params.NumPorts)
	for _, u := range uopsList {
		best, bestBusy := -1, math.Inf(1)
		for n := 0; n < len(busy); n++ {
			if u.ports.Contains(n) && busy[n] < bestBusy {
				best, bestBusy = n, busy[n]
			}
		}
		if best >= 0 {
			busy[best] += u.occ
		}
	}
	for n, v := range busy {
		r.PortPressure[n] = v
		if v > r.PortBound {
			r.PortBound = v
		}
	}

	// Dependency-chain bound: rerun with structural hazards removed (an
	// effectively infinite frontend and fully-ported backend), leaving
	// only data dependencies to pace the loop.
	r.DepChainBound = s.depChainThroughput(plans)

	r.Bottleneck = classify(r, busy)
	return r, nil
}

func classify(r Report, busy []float64) string {
	// Ties go to the most upstream resource: frontend, then ports, then
	// the dependency chain.
	if r.FrontendBound >= r.PortBound && r.FrontendBound >= r.DepChainBound {
		return "frontend"
	}
	if r.PortBound >= r.DepChainBound {
		for n, v := range busy {
			if v == r.PortBound {
				return fmt.Sprintf("port %d", n)
			}
		}
	}
	return "dependency chain"
}

// depChainThroughput measures cycles/iteration when only data dependencies
// constrain execution.
func (s *Simulator) depChainThroughput(plans []instPlan) float64 {
	loadLat := s.loadLat()
	ready := newReadyTable(plans, nil)
	iterEnd := make([]float64, s.cfg.Iterations)
	for iter := range iterEnd {
		end := 0.0
		for k := range plans {
			p := &plans[k]
			src := ready.operands(&p.acc)
			lat := 0.0
			if p.loads > 0 {
				lat += loadLat
			}
			if p.hasCompute {
				lat += float64(p.perf.Lat)
			}
			if p.stores > 0 {
				lat += float64(s.cfg.StoreForwardLat)
			}
			done := src + lat
			writes := p.acc.Writes
			if p.rspFast && writes&rspBit != 0 {
				// Same write-latency semantics as the full simulator: the
				// stack engine renames rsp immediately.
				ready.set(rspBit, &p.acc, src+1)
				writes &^= rspBit
			}
			ready.set(writes, &p.acc, done)
			end = max(end, done)
		}
		if iter > 0 && iterEnd[iter-1] > end {
			end = iterEnd[iter-1]
		}
		iterEnd[iter] = end
	}
	return slope(iterEnd)
}
