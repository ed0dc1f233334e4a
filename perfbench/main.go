// Command perfbench is the repository's benchmark: COMET at the paper's
// settings (1−δ = 0.7, the model's ε, a 1000-draw coverage pool) on
// seeded workloads, reported end to end with tracing off and layer by
// layer in a separate traced run. See README.md for the workloads and
// every metric.
//
//	perfbench --workload corpus-analytical --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics. The exit status is non-zero when any
// operation failed, was refused or produced output that differs from the
// independent recomputation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/wire"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*outcome, error){
	"corpus-analytical": runCorpusAnalytical,
	"serve-mixed":       runServeMixed,
}

// Every prediction cache holds at most cacheEntries entries. That is far
// more than the two explanations in flight query, so caching behaves as
// with the default bound (about a million), but the heap reaches its
// steady state within a run; at the default it grows for the whole run
// and heap_peak_mb would measure run length.
const cacheEntries = 1 << 16

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // build and scratch directory: temporary stores, span dumps
}

func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

// outcome is what a workload run reports.
type outcome struct {
	metrics metrics
	tally   tally
	notes   []string
}

func newOutcome() *outcome { return &outcome{metrics: metrics{}} }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// writeSpans dumps the run's spans and notes each layer's self time.
func (o *outcome) writeSpans(opt options, spans *spanLog) error {
	path := filepath.Join(opt.out, fmt.Sprintf("trace-%s-seed%d.jsonl", opt.workload, opt.seed))
	if err := spans.write(path); err != nil {
		return err
	}
	self := selfTimes(spans.spans)
	var total time.Duration
	names := make([]string, 0, len(self))
	for name, d := range self {
		names = append(names, name)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	o.notef("%d spans written to %s; self time by span:", len(spans.spans), path)
	for _, name := range names {
		o.notef("  %-24s %10.1f ms  %5.1f%%", name, float64(self[name].Microseconds())/1e3,
			100*self[name].Seconds()/total.Seconds())
	}
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{out: ".bench_build"}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: corpus-analytical or serve-mixed")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the timed region in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	drive, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (corpus-analytical|serve-mixed), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := drive(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", name, res.metrics[name].Value, res.metrics[name].Unit)
	}
	t := res.tally
	fmt.Fprintf(stdout, "error_rate %.6g (%d of %d operations: %d failed, %d refused, %d mismatched)\n",
		t.errorRate(), t.errors(), t.attempted, t.failed, t.refused, t.mismatched)
	line, err := json.Marshal(result{Correct: t.errors() == 0, Attempted: t.attempted, Failed: t.errors(), Metrics: res.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if t.errors() > 0 {
		return 1
	}
	return 0
}

// setupMedian runs a workload's set-up the given number of times and
// returns the last state with the median set-up time in seconds; done
// releases every other state.
func setupMedian[T any](repeats int, setup func() (T, error), done func(T)) (T, float64, error) {
	var st T
	times := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		if i > 0 {
			done(st)
		}
		start := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return st, median(times), nil
}

// parallel runs fn(0..n-1) on the given number of goroutines and returns
// the first error.
func parallel(n, workers int, fn func(int) error) error {
	next := make(chan int)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recordNoService reports the service-layer metrics of a workload that
// does not go through the service: zero work done there.
func recordNoService(m metrics) {
	for _, nu := range [][2]string{
		{"service.req_per_s", "1/s"}, {"service.req_p99_ms", "ms"}, {"service.hit_p50_ms", "ms"},
		{"service.miss_p50_ms", "ms"}, {"service.intern_hit_share", "ratio"},
		{"service.result_hit_share", "ratio"}, {"service.coalesced", "count"}, {"service.rejected_share", "ratio"},
	} {
		m.set(nu[0], nu[1], 0)
	}
}

// recordPersist reports Put latency percentiles and bytes written per Put.
func recordPersist(m metrics, puts []float64, bytes int64, n int64) {
	p99, _, _, _ := tail(puts, 0.99)
	m.set("persist.put_p50_us", "us", percentile(puts, 0.5))
	m.set("persist.put_p99_us", "us", p99)
	m.set("persist.bytes_per_put", "B", float64(bytes)/float64(max(n, 1)))
}

// replayPersist writes the workload's explanations into a fresh durable
// store through the timing wrapper, as the service does for each computed
// explanation.
func replayPersist(m metrics, o options, expls []*wire.Explanation) error {
	dir := filepath.Join(o.out, fmt.Sprintf("persist-%d", os.Getpid()))
	log, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st := &timingStore{Store: log}
	for i, e := range expls {
		if err := st.Put(&wire.Record{V: wire.RecordVersion, Kind: wire.RecordExplanation,
			Key: fmt.Sprintf("%064x", i), Spec: e.Model, Explanation: e}); err != nil {
			log.Close()
			return err
		}
	}
	stats := log.Stats()
	if err := log.Close(); err != nil {
		return err
	}
	recordPersist(m, st.putLatencies(), stats.TotalBytes, int64(stats.Puts))
	return nil
}
