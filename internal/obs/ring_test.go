package obs

import (
	"slices"
	"testing"
)

// TestRingWrapsOldestFirst covers an empty, partly filled, exactly full
// and wrapped ring: snapshots are oldest-first and the written count
// includes what the ring has forgotten.
func TestRingWrapsOldestFirst(t *testing.T) {
	const size = 8
	for _, n := range []int{0, 3, size, size + 5, 100} {
		r := newRing[int](size)
		for i := 0; i < n; i++ {
			r.add(i)
		}
		got, written := r.snapshot()
		var want []int
		for i := max(0, n-size); i < n; i++ {
			want = append(want, i)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%d adds: snapshot = %v, want %v", n, got, want)
		}
		if written != uint64(n) {
			t.Errorf("%d adds: written = %d", n, written)
		}
	}
}

// TestRingSizeFloors: each retention type sizes a too-small request up to
// its floor.
func TestRingSizeFloors(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want int
	}{
		{"span ring", len(NewTracer(0, 1).ring.buf), 64},
		{"flight recorder", len(NewFlightRecorder(0).buf), 64},
		{"outlier ring", len(NewOutlierRing(-1).buf), 16},
	} {
		if tc.got != tc.want {
			t.Errorf("%s holds %d slots, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestRingAddAllocFree: adding is a copy into a preallocated slot.
func TestRingAddAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	r := newRing[SpanRecord](16)
	rec := SpanRecord{TraceID: "t", SpanID: "s", Name: "explain", DurationUS: 12}
	if allocs := testing.AllocsPerRun(1000, func() { r.add(rec) }); allocs != 0 {
		t.Errorf("add allocates %.1f times per call, want 0", allocs)
	}
}
