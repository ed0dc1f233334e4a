package main

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// The host's speed drifts: on a shared 2-vCPU box, every wall-clock figure
// of a run moved by up to 30% with the load of other tenants, over
// minutes, and process CPU time moved with it. The gated timings are
// therefore scaled to a fixed host speed. Interleaved with the measured
// work, on the same goroutines, the benchmark times a fixed unit of its
// own work (hostRef.sample); a timing is scaled by refNominalMs over the
// unit's median time in the run. The unit is the benchmark's own code and
// allocates nothing while timed, so the program's code, allocation and
// garbage collection do not reach it; the host's speed does, and a little
// what runs beside it on the other CPU.

const (
	refWords     = 1 << 14 // the unit's working set: 128 KiB of uint64
	refNominalMs = 1.5     // the unit's nominal time, about its median on the reference box
)

// hostRef collects the reference unit's times in one run.
type hostRef struct {
	mu sync.Mutex
	ms []float64
}

// refSink keeps the unit's result live.
var refSink uint64

// refUnit fills buf with a xorshift stream, counts its values into a
// hashed table and sorts it: integer, branchy and memory work.
func refUnit(buf []uint64, table []uint32) uint64 {
	x := uint64(88172645463325252)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	for _, v := range buf {
		table[(v*0x9E3779B97F4A7C15)>>52]++
	}
	slices.Sort(buf)
	return buf[len(buf)/2] ^ uint64(table[buf[0]>>52])
}

// sample times one reference unit on the calling goroutine.
func (h *hostRef) sample() {
	buf, table := make([]uint64, refWords), make([]uint32, 1<<12)
	start := time.Now()
	v := refUnit(buf, table)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	h.mu.Lock()
	refSink ^= v
	h.ms = append(h.ms, ms)
	h.mu.Unlock()
}

// scale is refNominalMs over the unit's median time: multiply a time by
// it, divide a rate by it, to state the figure at the nominal host speed.
func (h *hostRef) scale() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return refNominalMs / median(h.ms)
}

// note describes the run's reference samples.
func (h *hostRef) note() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return fmt.Sprintf("host reference: median %.4f ms over %d units (nominal %.1f ms); gated timings are scaled by %.4f",
		median(h.ms), len(h.ms), refNominalMs, refNominalMs/median(h.ms))
}
