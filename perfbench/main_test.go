package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/core"
)

func TestTailUsesHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		want     float64
		wantUsed float64
		ok       bool
	}{
		{n: 2000, want: 0.99, wantUsed: 0.99, ok: true},
		{n: 1000, want: 0.99, wantUsed: 0.99, ok: true},
		{n: 200, want: 0.99, wantUsed: 0.95, ok: true},
		{n: 100, want: 0.9, wantUsed: 0.9, ok: true},
		{n: 50, want: 0.9, wantUsed: 0.8, ok: true},
		{n: 20, want: 0.99, wantUsed: 0.5, ok: true},
		{n: 10, want: 0.99, wantUsed: 0.5, ok: false},
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[i] = float64(tc.n - i) // descending, so sorting matters
		}
		v, used, n, ok := tail(samples, tc.want)
		if n != tc.n || ok != tc.ok || math.Abs(used-tc.wantUsed) > 1e-12 {
			t.Errorf("n=%d want p%v: got p%v of %d (ok=%v), want p%v (ok=%v)", tc.n, tc.want, used, n, ok, tc.wantUsed, tc.ok)
			continue
		}
		beyond := 0
		for _, s := range samples {
			if s > v {
				beyond++
			}
		}
		if ok && beyond < 10 {
			t.Errorf("n=%d: p%v = %v has only %d samples beyond it", tc.n, used, v, beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestErrorRateCountsFailedRefusedAndMismatched(t *testing.T) {
	tl := tally{attempted: 100, failed: 1, refused: 2, mismatched: 3}
	if tl.errors() != 6 || math.Abs(tl.errorRate()-0.06) > 1e-12 {
		t.Fatalf("errors %d rate %v, want 6 and 0.06", tl.errors(), tl.errorRate())
	}
	var sum tally
	sum.add(tl)
	sum.add(tally{attempted: 100})
	if math.Abs(sum.errorRate()-0.03) > 1e-12 {
		t.Fatalf("merged rate %v, want 0.03", sum.errorRate())
	}
	if (tally{}).errorRate() != 0 {
		t.Fatal("empty tally must have rate 0")
	}
}

// clientAgainst runs one serve-mixed client for a moment against a stub
// server and returns its tally.
func clientAgainst(t *testing.T, h http.HandlerFunc) tally {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	st := &serveState{in: newServeInputs(1), url: srv.URL, client: srv.Client()}
	for codec := range st.golden {
		st.golden[codec] = make([][]byte, len(st.in.hot))
		for h := range st.in.hot {
			st.golden[codec][h] = []byte("golden")
		}
	}
	_, tl := st.clientLoop(0, time.Now().Add(100*time.Millisecond), false)
	if tl.attempted == 0 {
		t.Fatal("client sent nothing")
	}
	return tl
}

func TestRefusedRequestsAreErrors(t *testing.T) {
	tl := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	})
	if tl.refused != tl.attempted || tl.errorRate() != 1 {
		t.Fatalf("all requests refused: got %+v, rate %v", tl, tl.errorRate())
	}
}

func TestWrongRepliesAreErrors(t *testing.T) {
	tl := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("not an explanation"))
	})
	// Hot replies differ from their golden bytes; fresh ones do not decode.
	if tl.mismatched == 0 || tl.failed == 0 || tl.errors() != tl.attempted {
		t.Fatalf("every reply is wrong: got %+v", tl)
	}
	ok := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("golden"))
	})
	if ok.mismatched != 0 {
		t.Fatalf("golden hot replies counted as mismatched: %+v", ok)
	}
}

func TestMetricGrammar(t *testing.T) {
	for _, good := range []string{"setup_s", "core.expl_p50_ms", "0x-1.b", "a234567890123456789012345678901234567890123456789012345678901234"} {
		if !validName(good) {
			t.Errorf("%q rejected", good)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "é", "a2345678901234567890123456789012345678901234567890123456789012345"} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, good := range []string{"ms", "s", "1/s", "count", "%", "MiB", "ratio"} {
		if !validUnit(good) {
			t.Errorf("unit %q rejected", good)
		}
	}
	for _, bad := range []string{"", "m s", "12345678901234567", "µs"} {
		if validUnit(bad) {
			t.Errorf("unit %q accepted", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("set accepted a malformed name")
		}
	}()
	metrics{}.set("bad name", "ms", 1)
}

// TestBenchmarkFileGrammar checks every metric BENCHMARK.json declares.
func TestBenchmarkFileGrammar(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !validName(m.Name) || !validUnit(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q [%s] is malformed or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := corpusInputs(50), corpusInputs(50)
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("corpus block %d differs between generations", i)
		}
		// The run seed is the explainer's base seed.
		if core.BlockSeed(7, i) == core.BlockSeed(8, i) {
			t.Fatalf("block %d has the same explanation seed under seeds 7 and 8", i)
		}
	}

	x, y, z := newServeInputs(7).sequence(0), newServeInputs(7).sequence(0), newServeInputs(8).sequence(0)
	differs := false
	for i := 0; i < 500; i++ {
		rx, ry, rz := x(), y(), z()
		if rx.block.String() != ry.block.String() || rx.seed != ry.seed || rx.binary != ry.binary || rx.hot != ry.hot {
			t.Fatalf("serve request %d differs for the same seed", i)
		}
		if rx.block.String() != rz.block.String() || rx.seed != rz.seed || rx.binary != rz.binary {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 produced the same serve sequence")
	}
}

func TestServeBlocksAreDistinct(t *testing.T) {
	in := newServeInputs(3)
	seen := map[string]bool{}
	for _, b := range in.hot {
		seen[b.String()] = true
	}
	for _, pool := range in.fresh {
		for _, b := range pool {
			if seen[b.String()] {
				t.Fatalf("block repeated across hot set and fresh pools:\n%s", b)
			}
			seen[b.String()] = true
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: "a", Name: "root", Start: 0, End: 100},
		{Trace: "a", Name: "child", Start: 10, End: 40},
		{Trace: "a", Name: "child", Start: 30, End: 60}, // overlaps its sibling, so nests in root
		{Trace: "a", Name: "leaf", Start: 12, End: 20},
		{Trace: "b", Name: "root", Start: 0, End: 10},
	}
	got := selfTimes(spans)
	// root a: 100 - |[10,60]| = 50; root b: 10.
	// first child: 30 - 8 (leaf); second child: 30.
	want := map[string]time.Duration{"root": 60, "child": 22 + 30, "leaf": 8}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %v, want %v", k, got[k], v)
		}
	}
}

func TestHostRefScalesToNominalSpeed(t *testing.T) {
	var h hostRef
	h.ms = []float64{2 * refNominalMs, 2 * refNominalMs, 50 * refNominalMs} // one outlier
	if got := h.scale(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("scale on a host at half speed = %v, want 0.5", got)
	}
	h.sample()
	if n := len(h.ms); n != 4 || h.ms[3] <= 0 {
		t.Fatalf("sample recorded %v", h.ms)
	}
}
