package x86

// Arch selects a target microarchitecture for performance attributes.
type Arch int

// Supported microarchitectures (the two the paper evaluates).
const (
	Haswell Arch = iota
	Skylake
)

// String returns the common short name (HSW, SKL).
func (a Arch) String() string {
	switch a {
	case Haswell:
		return "HSW"
	case Skylake:
		return "SKL"
	}
	return "arch(?)"
}

// numArches is the number of supported microarchitectures.
const numArches = 2

// Arches lists the supported microarchitectures.
func Arches() []Arch { return []Arch{Haswell, Skylake} }

// PortSet is a bitmask over execution ports 0..7.
type PortSet uint8

// Port returns the set containing only the given port number.
func Port(ns ...int) PortSet {
	var s PortSet
	for _, n := range ns {
		s |= 1 << uint(n)
	}
	return s
}

// Contains reports whether port n is in the set.
func (s PortSet) Contains(n int) bool { return s&(1<<uint(n)) != 0 }

// Count returns the number of ports in the set.
func (s PortSet) Count() int {
	c := 0
	for n := 0; n < 8; n++ {
		if s.Contains(n) {
			c++
		}
	}
	return c
}

// Perf describes the execution cost of one compute micro-op.
//
// The numbers are synthetic but track the qualitative structure of the
// published uops.info / Agner Fog tables: latencies and reciprocal
// throughputs follow the ordering div ≫ sqrt > fp-mul ≥ fp-add > imul >
// shift ≥ alu ≈ mov, loads take several cycles, and divides occupy their
// port unpipelined.
type Perf struct {
	Lat         int     // result latency in cycles
	RThru       float64 // reciprocal throughput of the compute uop
	Ports       PortSet // eligible execution ports
	Unpipelined bool    // the uop occupies its port for ceil(RThru) cycles
}

// ArchParams captures frontend and memory-subsystem parameters.
type ArchParams struct {
	IssueWidth   int     // uops issued per cycle
	LoadLat      int     // L1 load-to-use latency
	LoadPorts    PortSet // ports executing load uops
	StoreDataPts PortSet // ports executing store-data uops
	StoreAddrPts PortSet // ports executing store-address uops
	NumPorts     int
}

// Params returns the frontend/memory parameters for the architecture.
func Params(a Arch) ArchParams {
	switch a {
	case Skylake:
		return ArchParams{
			IssueWidth:   4,
			LoadLat:      4,
			LoadPorts:    Port(2, 3),
			StoreDataPts: Port(4),
			StoreAddrPts: Port(2, 3, 7),
			NumPorts:     8,
		}
	default: // Haswell
		return ArchParams{
			IssueWidth:   4,
			LoadLat:      5,
			LoadPorts:    Port(2, 3),
			StoreDataPts: Port(4),
			StoreAddrPts: Port(2, 3, 7),
			NumPorts:     8,
		}
	}
}

// classPerf returns the default compute-uop cost of an instruction class.
func classPerf(a Arch, c Class) Perf {
	hsw := a == Haswell
	switch c {
	case ClassIntALU:
		return Perf{Lat: 1, RThru: 0.25, Ports: Port(0, 1, 5, 6)}
	case ClassMov:
		return Perf{Lat: 1, RThru: 0.25, Ports: Port(0, 1, 5, 6)}
	case ClassMovExt:
		return Perf{Lat: 1, RThru: 0.5, Ports: Port(0, 1, 5, 6)}
	case ClassLea:
		return Perf{Lat: 1, RThru: 0.5, Ports: Port(1, 5)}
	case ClassIntMul:
		return Perf{Lat: 3, RThru: 1, Ports: Port(1)}
	case ClassIntDiv:
		if hsw {
			return Perf{Lat: 28, RThru: 22, Ports: Port(0), Unpipelined: true}
		}
		return Perf{Lat: 24, RThru: 18, Ports: Port(0), Unpipelined: true}
	case ClassShift:
		return Perf{Lat: 1, RThru: 0.5, Ports: Port(0, 6)}
	case ClassBitCount:
		return Perf{Lat: 3, RThru: 1, Ports: Port(1)}
	case ClassPush:
		return Perf{Lat: 1, RThru: 1, Ports: Port(4)} // store-data modeled separately
	case ClassPop:
		return Perf{Lat: 1, RThru: 0.5, Ports: Port(2, 3)}
	case ClassXchg:
		return Perf{Lat: 2, RThru: 1, Ports: Port(0, 1, 5, 6)}
	case ClassVecMov:
		return Perf{Lat: 1, RThru: 0.33, Ports: Port(0, 1, 5)}
	case ClassVecFPAdd:
		if hsw {
			return Perf{Lat: 3, RThru: 1, Ports: Port(1)}
		}
		return Perf{Lat: 4, RThru: 0.5, Ports: Port(0, 1)}
	case ClassVecFPMul:
		if hsw {
			return Perf{Lat: 5, RThru: 0.5, Ports: Port(0, 1)}
		}
		return Perf{Lat: 4, RThru: 0.5, Ports: Port(0, 1)}
	case ClassVecFPDiv:
		if hsw {
			return Perf{Lat: 13, RThru: 8, Ports: Port(0), Unpipelined: true}
		}
		return Perf{Lat: 11, RThru: 5, Ports: Port(0), Unpipelined: true}
	case ClassVecFPSqrt:
		if hsw {
			return Perf{Lat: 16, RThru: 9, Ports: Port(0), Unpipelined: true}
		}
		return Perf{Lat: 13, RThru: 6, Ports: Port(0), Unpipelined: true}
	case ClassVecIntALU:
		return Perf{Lat: 1, RThru: 0.5, Ports: Port(1, 5)}
	case ClassVecIntMul:
		return Perf{Lat: 5, RThru: 1, Ports: Port(0)}
	case ClassVecLogic:
		return Perf{Lat: 1, RThru: 0.33, Ports: Port(0, 1, 5)}
	case ClassVecCmp:
		return Perf{Lat: 2, RThru: 1, Ports: Port(1)}
	case ClassConvert:
		return Perf{Lat: 5, RThru: 1, Ports: Port(1)}
	case ClassNop:
		return Perf{Lat: 0, RThru: 0.25, Ports: Port(0, 1, 5, 6)}
	}
	return Perf{Lat: 1, RThru: 1, Ports: Port(0, 1, 5, 6)}
}

// opcodePerfOverride adjusts costs for opcodes that deviate from their
// class default (narrow divides are cheaper; double-precision divides are
// slower than single-precision; packed divides slower still).
func opcodePerfOverride(a Arch, opcode string, size int, p Perf) Perf {
	hsw := a == Haswell
	switch opcode {
	case "div", "idiv":
		// Narrower divides retire faster.
		switch size {
		case Size8, Size16:
			p.Lat, p.RThru = p.Lat-8, p.RThru-8
		case Size32:
			p.Lat, p.RThru = p.Lat-4, p.RThru-6
		}
	case "divsd", "vdivsd":
		p.Lat += 3
		p.RThru += 2
	case "divpd", "vdivpd":
		p.Lat += 6
		p.RThru += 6
	case "divps", "vdivps":
		p.Lat += 2
		p.RThru += 3
	case "sqrtsd", "vsqrtsd":
		p.Lat += 4
		p.RThru += 3
	case "mov":
		// Register-to-register moves are eliminated at rename on both
		// microarchitectures; still one uop for frontend purposes.
		_ = hsw
	}
	if p.Lat < 1 && opcode != "nop" {
		p.Lat = 1
	}
	if p.RThru < 0.25 {
		p.RThru = 0.25
	}
	return p
}

// perfWidths are the first-operand widths each spec's costs are compiled
// for: none (no operands) and the six operand widths.
var perfWidths = [...]int{0, Size8, Size16, Size32, Size64, Size128, Size256}

// perfIndex returns size's index in perfWidths, or -1.
func perfIndex(size int) int {
	if size == 0 {
		return 0
	}
	if w := widthIndex(size); w >= 0 {
		return w + 1
	}
	return -1
}

// SpecPerf returns the compute-uop cost on arch a of an instruction
// whose spec is already resolved: the class cost with the opcode's
// adjustments for the width of its first operand. The cost of a
// canonical opcode at one of perfWidths is compiled into its spec.
func SpecPerf(a Arch, spec *Spec, inst Instruction) Perf {
	size := 0
	if len(inst.Operands) > 0 {
		size = inst.Operands[0].Size
	}
	if w := perfIndex(size); w >= 0 && uint(a) < numArches && inst.Opcode == spec.Name {
		return spec.perf[a][w]
	}
	return opcodePerfOverride(a, inst.Opcode, size, classPerf(a, spec.Class))
}

// InstThroughput returns the standalone reciprocal throughput of the
// instruction (cycles per instruction when running back-to-back with no
// dependencies), used by the crude analytical cost model C as
// cost_inst(inst). It accounts for load/store uops alongside the compute
// uop, mirroring how uops.info reports measured instruction throughputs.
func InstThroughput(a Arch, inst Instruction) float64 {
	spec, ok := inst.Spec()
	if !ok {
		return 1
	}
	loads, stores := MemUops(spec, spec.MatchForm(inst.Operands), inst)
	return UopThroughput(SpecPerf(a, spec, inst).RThru, loads, stores)
}

// UopThroughput is InstThroughput for an instruction whose compute uop
// has reciprocal throughput rthru, next to its load and store uops.
func UopThroughput(rthru float64, loads, stores int) float64 {
	t := rthru
	// A load or store uop binds one of two (load) / one (store-data) ports.
	if loads > 0 && float64(loads)*0.5 > t {
		t = float64(loads) * 0.5
	}
	if stores > 0 && float64(stores) > t {
		t = float64(stores)
	}
	return t
}

// MemUops returns how many load and store micro-ops the instruction
// performs, based on its matched form f (nil when none matches) and stack
// behaviour; the pipeline simulator schedules one uop per access.
func MemUops(spec *Spec, f *Form, inst Instruction) (loads, stores int) {
	if spec.StackRead {
		loads++
	}
	if spec.StackWrite {
		stores++
	}
	if f == nil {
		return loads, stores
	}
	for i := range f.Ops {
		if i >= len(inst.Operands) || inst.Operands[i].Kind != KindMem {
			continue
		}
		t := &f.Ops[i]
		if t.Access&AccR != 0 {
			loads++
		}
		if t.Access&AccW != 0 {
			stores++
		}
	}
	return loads, stores
}
