// Package hwsim is an out-of-order, port-based steady-state throughput
// simulator for the modeled x86 subset. It plays two roles in this
// reproduction:
//
//   - at full fidelity it stands in for the real Haswell/Skylake hardware
//     that labeled the BHive dataset, producing the "actual throughput"
//     ground truth every cost model is scored against;
//   - with a coarsened configuration it becomes the uiCA surrogate — an
//     accurate but imperfect simulation-based cost model (see package
//     uica).
//
// The simulator issues each instruction's micro-ops (compute, load,
// store-data, store-address) in program order over many loop iterations,
// scheduling each uop at the earliest cycle permitted by its operand
// readiness (through the same location model the dependency analyzer
// uses), the availability of an eligible execution port, and the frontend
// issue width. Steady-state throughput is the cycle-per-iteration slope
// over the second half of the simulated iterations, which is how
// throughput is defined for BHive ("average cycles per iteration when
// looped in steady state").
package hwsim

import (
	"math"
	"math/bits"

	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/x86"
)

// Config selects the microarchitecture and the fidelity knobs. The zero
// value is not useful; start from HardwareConfig or ApproxConfig.
type Config struct {
	Arch       x86.Arch
	Iterations int // loop iterations to simulate (≥ 8)

	// Fidelity knobs. HardwareConfig leaves them at full fidelity; the
	// uiCA surrogate coarsens them, which is what gives it a small but
	// non-zero prediction error concentrated on store- and divide-heavy
	// blocks — mirroring how real analytical simulators deviate from
	// silicon.
	ModelStoreAddr  bool    // model store-address uop port pressure
	LoadLatDelta    int     // added to the arch's L1 load-to-use latency
	StoreForwardLat int     // store→load forwarding latency
	DivRThruDelta   float64 // added to divide reciprocal throughput
}

// HardwareConfig returns the full-fidelity configuration used as the
// stand-in for real hardware measurements.
func HardwareConfig(arch x86.Arch) Config {
	return Config{
		Arch:            arch,
		Iterations:      64,
		ModelStoreAddr:  true,
		StoreForwardLat: 3,
	}
}

// ApproxConfig returns the coarsened configuration behind the uiCA
// surrogate: no store-address port modeling, one cycle less load latency,
// cheaper store forwarding, and slightly optimistic divides.
func ApproxConfig(arch x86.Arch) Config {
	return Config{
		Arch:            arch,
		Iterations:      64,
		ModelStoreAddr:  false,
		LoadLatDelta:    -1,
		StoreForwardLat: 2,
		DivRThruDelta:   -2,
	}
}

// Simulator predicts basic-block throughput under one Config.
// It is stateless across Throughput calls and safe for concurrent use.
type Simulator struct {
	cfg    Config
	params x86.ArchParams
}

// New builds a simulator.
func New(cfg Config) *Simulator {
	if cfg.Iterations < 8 {
		cfg.Iterations = 64
	}
	return &Simulator{cfg: cfg, params: x86.Params(cfg.Arch)}
}

// Name implements costmodel.Model.
func (s *Simulator) Name() string { return "hwsim" }

// Arch implements costmodel.Model.
func (s *Simulator) Arch() x86.Arch { return s.cfg.Arch }

// Predict implements costmodel.Model.
func (s *Simulator) Predict(b *x86.BasicBlock) float64 { return s.Throughput(b) }

// instPlan is the per-instruction scheduling recipe, precomputed once per
// block.
type instPlan struct {
	acc           deps.InstAccess // the locations it reads and writes
	perf          x86.Perf
	occupancy     float64 // cycles the compute uop holds its port
	loads, stores int
	uops          int
	hasCompute    bool // pure loads/stores (mov/push/pop) have no ALU uop
	rspFast       bool // push/pop update rsp through the stack engine
}

// rspBit is rsp's location bit in a deps.InstAccess mask.
const rspBit = 1 << x86.FamRSP

// readyTable records the cycle each location's value becomes ready; a
// location never written reads as ready at cycle 0.
type readyTable struct {
	at [64]float64 // by location bit; deps.MemBit's slot is unused
	// mem has one slot per memory-writing plan; the first nmem hold the
	// locations written so far.
	mem  []memReady
	nmem int
}

// memReady is the ready cycle of one memory location.
type memReady struct {
	loc deps.MemLoc
	at  float64
}

// Stack capacities of the simulator's working storage: a typical block
// fits, and a larger one falls back to the heap.
const (
	stackPlans = 16 // instructions in a block
	stackMem   = 16 // memory locations a block writes
	stackPorts = 8  // execution ports (x86.PortSet holds 8)
	stackIters = 64 // simulated loop iterations
)

// fit returns buf[:n] when n fits in buf, and otherwise a fresh slice of
// length n; either way every element is zero if buf's are.
func fit[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// newReadyTable returns an empty table with a slot, taken from buf when it
// has room, for every memory location the plans write. The slots are
// filled by index, never appended, so a table on the stack keeps buf there.
func newReadyTable(plans []instPlan, buf []memReady) readyTable {
	n := 0
	for k := range plans {
		if plans[k].acc.Writes&deps.MemBit != 0 {
			n++
		}
	}
	return readyTable{mem: fit(buf, n)}
}

// operands returns the cycle all of a's reads are ready.
func (r *readyTable) operands(a *deps.InstAccess) float64 {
	src := 0.0
	for m := a.Reads &^ deps.MemBit; m != 0; m &= m - 1 {
		if t := r.at[bits.TrailingZeros64(m)]; t > src {
			src = t
		}
	}
	if a.Reads&deps.MemBit != 0 {
		for k := range r.mem[:r.nmem] {
			if e := &r.mem[k]; e.loc == a.Mem && e.at > src {
				src = e.at
			}
		}
	}
	return src
}

// set marks the locations in mask, a subset of a's writes, ready at
// cycle t.
func (r *readyTable) set(mask uint64, a *deps.InstAccess, t float64) {
	for m := mask &^ deps.MemBit; m != 0; m &= m - 1 {
		r.at[bits.TrailingZeros64(m)] = t
	}
	if mask&deps.MemBit == 0 {
		return
	}
	for k := range r.mem[:r.nmem] {
		if r.mem[k].loc == a.Mem {
			r.mem[k].at = t
			return
		}
	}
	r.mem[r.nmem] = memReady{a.Mem, t}
	r.nmem++
}

// Throughput returns the predicted steady-state cycles per iteration.
// Invalid blocks yield +Inf (they cannot execute).
func (s *Simulator) Throughput(b *x86.BasicBlock) float64 {
	var buf [stackPlans]instPlan
	plans, ok := s.plan(b, buf[:0])
	if !ok {
		return math.Inf(1)
	}
	return s.simulate(plans)
}

// simulate runs the planned block for cfg.Iterations loop iterations and
// returns its steady-state cycles per iteration.
func (s *Simulator) simulate(plans []instPlan) float64 {
	var (
		memBuf  [stackMem]memReady
		portBuf [stackPorts]float64
		endBuf  [stackIters]float64
	)
	ready := newReadyTable(plans, memBuf[:])
	portFree := fit(portBuf[:], s.params.NumPorts)
	iterEnd := fit(endBuf[:], s.cfg.Iterations)
	uopCount := 0
	loadLat := s.loadLat()

	for iter := range iterEnd {
		end := 0.0
		for k := range plans {
			p := &plans[k]
			// Frontend: uops enter the backend at issue-width per cycle.
			frontend := float64(uopCount) / float64(s.params.IssueWidth)
			uopCount += p.uops

			start := max(frontend, ready.operands(&p.acc))
			issue := start // cycle the first uop of the instruction issues

			// Load uops: issue on a load port, extend the data-ready chain.
			dataLat := 0.0
			for l := 0; l < p.loads; l++ {
				start = issueOnPort(start, s.params.LoadPorts, 1, portFree)
				issue = start
				dataLat = loadLat
			}

			// Compute uop.
			dataDone := start + dataLat
			if p.hasCompute {
				start = issueOnPort(start, p.perf.Ports, p.occupancy, portFree)
				issue = start
				dataDone = start + float64(p.perf.Lat) + dataLat
			}

			// Store uops: the written memory location becomes visible to
			// later loads after the store-forwarding latency.
			memDone := dataDone
			for st := 0; st < p.stores; st++ {
				start = issueOnPort(start, s.params.StoreDataPts, 1, portFree)
				issue = start
				if s.cfg.ModelStoreAddr {
					issueOnPort(start, s.params.StoreAddrPts, 1, portFree)
				}
				memDone = start + float64(s.cfg.StoreForwardLat)
			}

			writes := p.acc.Writes
			if p.rspFast && writes&rspBit != 0 {
				// The stack engine renames rsp at issue; push/pop chains do
				// not serialize on the memory access.
				ready.set(rspBit, &p.acc, issue+1)
				writes &^= rspBit
			}
			ready.set(writes&(deps.MemBit|deps.StackBit), &p.acc, memDone)
			ready.set(writes&^(deps.MemBit|deps.StackBit), &p.acc, dataDone)

			end = max(end, max(dataDone, memDone))
		}
		if iter > 0 && iterEnd[iter-1] > end {
			end = iterEnd[iter-1]
		}
		iterEnd[iter] = end
	}
	return slope(iterEnd)
}

// slope returns the cycles per iteration over the second half of the
// iteration end times, or 0 if they decrease.
func slope(iterEnd []float64) float64 {
	n, half := len(iterEnd), len(iterEnd)/2
	cycles := (iterEnd[n-1] - iterEnd[half-1]) / float64(n-half)
	if cycles < 0 {
		return 0
	}
	return cycles
}

// loadLat is the load-to-use latency, at least one cycle.
func (s *Simulator) loadLat() float64 {
	return max(1, float64(s.params.LoadLat+s.cfg.LoadLatDelta))
}

// issueOnPort finds the eligible port that frees earliest (the lowest
// index among equally free ones), issues the uop there no earlier than
// earliest, marks the port busy for occupancy cycles, and returns the
// issue cycle. With no eligible port it returns earliest.
func issueOnPort(earliest float64, eligible x86.PortSet, occupancy float64, portFree []float64) float64 {
	best := -1
	bestFree := math.Inf(1)
	for m := uint8(eligible); m != 0; m &= m - 1 {
		n := bits.TrailingZeros8(m)
		if n >= len(portFree) {
			break
		}
		if portFree[n] < bestFree {
			bestFree = portFree[n]
			best = n
		}
	}
	if best < 0 {
		return earliest
	}
	start := max(earliest, portFree[best])
	portFree[best] = start + occupancy
	return start
}

// plan resolves the block's instructions once, through its access
// summary, into scheduling recipes appended to dst. It fails on an empty
// or invalid block.
func (s *Simulator) plan(b *x86.BasicBlock, dst []instPlan) ([]instPlan, bool) {
	if b == nil || b.Len() == 0 {
		return nil, false
	}
	var buf [stackPlans]deps.InstAccess
	sum, err := deps.AppendSummary(buf[:0], b, deps.Options{})
	if err != nil {
		return nil, false
	}
	for i, a := range sum {
		inst, spec := b.Instructions[i], a.Spec
		perf := x86.SpecPerf(s.cfg.Arch, spec, inst)
		loads, stores := a.MemUops()
		// Pure data movement to or from memory has no ALU uop: a store is
		// store-data (+ store-address), a load is just the load uop.
		hasCompute := true
		switch spec.Class {
		case x86.ClassMov, x86.ClassVecMov, x86.ClassPush, x86.ClassPop:
			if loads+stores > 0 {
				hasCompute = false
			}
		}
		uops := loads + stores
		if hasCompute {
			uops++
		}
		if s.cfg.ModelStoreAddr {
			uops += stores
		}
		occupancy := 1.0
		if perf.Unpipelined {
			occupancy = math.Ceil(max(1, perf.RThru+s.cfg.DivRThruDelta))
		}
		dst = append(dst, instPlan{
			acc:        a,
			perf:       perf,
			occupancy:  occupancy,
			loads:      loads,
			stores:     stores,
			uops:       uops,
			hasCompute: hasCompute,
			rspFast:    spec.StackRead || spec.StackWrite,
		})
	}
	return dst, true
}
