// Command comet-top is the live cluster cockpit: a terminal dashboard
// over a comet-serve process (or a whole cluster, when pointed at a
// coordinator), rendered from the server's own retained telemetry — no
// scrape pipeline, no external store.
//
// Every tick it polls GET /debug/history?cluster=1 (per-route request
// rates, latency quantiles, cache hit rates, queue depths, per-spec
// explanation quality — one history per cluster process, federated by
// the coordinator), GET /v1/cluster (worker pool and lease scheduler),
// and GET /debug/traces?outliers=1&cluster=1 (the retained slow/5xx
// traces), then redraws:
//
//	comet-top — http://127.0.0.1:8372 — 3 processes — 2026-08-08T10:00:00Z
//
//	== coordinator  (600 samples @ 1s)
//	ROUTE        REQ/S     P99    5XX/S  ▁▂▃▅▇ history
//	explain       12.0  13.2ms      0.0  ▁▁▂▃▅▆█▇▆▅▃▂▁...
//	...
//
// Pointed at a plain worker it renders that process alone; a down
// worker shows as an error line, never a failed draw.
//
// Flags: -interval sets the poll cadence, -once draws a single frame
// and exits, -json (with -once) emits the raw snapshot as one JSON
// document — the form the e2e harness asserts on — -width sets the
// sparkline width, and -outliers caps the outlier rows.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/comet-explain/comet/internal/inspect"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/version"
	"github.com/comet-explain/comet/internal/wire"
)

func main() {
	var (
		interval    = flag.Duration("interval", 2*time.Second, "poll and redraw cadence")
		once        = flag.Bool("once", false, "draw one frame and exit (no screen clearing)")
		rawJSON     = flag.Bool("json", false, "with -once: print the polled snapshot as JSON instead of rendering")
		width       = flag.Int("width", 40, "sparkline width in cells")
		outliers    = flag.Int("outliers", 8, "recent outlier traces shown")
		timeout     = flag.Duration("timeout", 15*time.Second, "HTTP timeout per poll")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: comet-top [flags] <server-url>\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("comet-top"))
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	base := wire.BaseURL(flag.Arg(0))
	client := &http.Client{Timeout: *timeout}

	for {
		snap := poll(client, base, *outliers)
		if *rawJSON && *once {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(snap); err != nil {
				fatal(err)
			}
			return
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		render(os.Stdout, base, snap, *width, *outliers)
		if *once {
			if snap.Err != "" {
				fatal(fmt.Errorf("%s", snap.Err))
			}
			return
		}
		time.Sleep(*interval)
	}
}

// processHistory is one process's entry in the federated history view.
type processHistory struct {
	Process string           `json:"process"`
	Error   string           `json:"error,omitempty"`
	History *obs.HistoryDump `json:"history,omitempty"`
}

// historyResp decodes both shapes GET /debug/history?cluster=1 can
// answer with: the federated envelope (coordinator) and a plain dump
// (standalone process or worker — it ignores ?cluster=1).
type historyResp struct {
	obs.HistoryDump
	Cluster   bool             `json:"cluster"`
	Processes []processHistory `json:"processes"`
}

// snapshot is one polled frame — and, verbatim, the -once -json output.
type snapshot struct {
	Base      string              `json:"base"`
	Polled    time.Time           `json:"polled"`
	Processes []processHistory    `json:"processes"`
	Cluster   *wire.ClusterStatus `json:"cluster,omitempty"`
	Outliers  []obs.OutlierTrace  `json:"outliers"`
	// Err is set when the history poll itself failed (server down); the
	// frame still renders, showing the error.
	Err string `json:"error,omitempty"`
}

// poll gathers one frame. Partial failures degrade sections, never the
// frame: a standalone process has no /v1/cluster, tracing may be off.
func poll(client *http.Client, base string, maxOutliers int) snapshot {
	snap := snapshot{Base: base, Polled: time.Now().UTC()}
	ctx := context.Background()

	hist, err := wire.Call[historyResp](ctx, client, base+"/debug/history?cluster=1", "", nil)
	if err != nil {
		snap.Err = err.Error()
		return snap
	}
	if hist.Cluster {
		snap.Processes = hist.Processes
	} else {
		dump := hist.HistoryDump
		snap.Processes = []processHistory{{Process: dump.Process, History: &dump}}
	}

	if status, err := wire.Call[wire.ClusterStatus](ctx, client, base+"/v1/cluster", "", nil); err == nil {
		snap.Cluster = status
	}

	type outlierBody struct {
		Outliers []obs.OutlierTrace `json:"outliers"`
	}
	url := fmt.Sprintf("%s/debug/traces?outliers=1&cluster=1&limit=%d", base, maxOutliers)
	if outl, err := wire.Call[outlierBody](ctx, client, url, "", nil); err == nil {
		snap.Outliers = outl.Outliers
	}
	return snap
}

// render draws one frame.
func render(w io.Writer, base string, snap snapshot, width, maxOutliers int) {
	fmt.Fprintf(w, "comet-top — %s — %d processes — %s\n",
		base, len(snap.Processes), snap.Polled.Format(time.RFC3339))
	if snap.Err != "" {
		fmt.Fprintf(w, "\n  poll failed: %s\n", snap.Err)
		return
	}
	for _, p := range snap.Processes {
		renderProcess(w, p, width)
	}
	if snap.Cluster != nil {
		renderCluster(w, snap.Cluster)
	}
	renderOutliers(w, snap.Outliers, maxOutliers)
}

// series indexes a dump's series by name.
func seriesMap(d *obs.HistoryDump) map[string]obs.HistorySeries {
	m := make(map[string]obs.HistorySeries, len(d.Series))
	for _, s := range d.Series {
		m[s.Name] = s
	}
	return m
}

func points(s obs.HistorySeries) []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = float64(p)
	}
	return out
}

// fmtLast renders a series' most recent point, "—" for a gap.
func fmtLast(s obs.HistorySeries, format string) string {
	v := float64(s.Last)
	if math.IsNaN(v) {
		return "—"
	}
	return fmt.Sprintf(format, v)
}

func renderProcess(w io.Writer, p processHistory, width int) {
	label := p.Process
	if label == "" {
		label = "local"
	}
	if p.Error != "" {
		fmt.Fprintf(w, "\n== %s  UNREACHABLE: %s\n", label, p.Error)
		return
	}
	if p.History == nil {
		fmt.Fprintf(w, "\n== %s  (no history)\n", label)
		return
	}
	d := p.History
	fmt.Fprintf(w, "\n== %s  (%d samples @ %s)\n",
		label, d.Samples, time.Duration(d.IntervalMS)*time.Millisecond)
	series := seriesMap(d)

	// Per-route rows, busiest first; routes that never saw traffic are
	// noise, skip them.
	type routeRow struct {
		name  string
		total float64
	}
	var rows []routeRow
	for name, s := range series {
		if !strings.HasPrefix(name, "route.") || !strings.HasSuffix(name, ".rps") {
			continue
		}
		route := strings.TrimSuffix(strings.TrimPrefix(name, "route."), ".rps")
		total := 0.0
		for _, v := range points(s) {
			if !math.IsNaN(v) {
				total += v
			}
		}
		if total > 0 {
			rows = append(rows, routeRow{route, total})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].name < rows[j].name
	})
	if len(rows) > 0 {
		fmt.Fprintf(w, "%-12s %7s %9s %7s  %s\n", "ROUTE", "REQ/S", "P99", "5XX/S", "history (req/s)")
		for _, r := range rows {
			prefix := "route." + r.name
			fmt.Fprintf(w, "%-12s %7s %9s %7s  %s\n",
				r.name,
				fmtLast(series[prefix+".rps"], "%.1f"),
				fmtLast(series[prefix+".p99_ms"], "%.1fms"),
				fmtLast(series[prefix+".rps_5xx"], "%.1f"),
				inspect.Sparkline(points(series[prefix+".rps"]), width))
		}
	}

	hitRates := []string{}
	for _, name := range []string{"prediction_cache", "intern", "persist", "result_store"} {
		if s, ok := series["hit_rate."+name]; ok {
			hitRates = append(hitRates, fmt.Sprintf("%s %s", name, fmtLast(s, "%.2f")))
		}
	}
	if len(hitRates) > 0 {
		fmt.Fprintf(w, "hit rates: %s\n", strings.Join(hitRates, "  "))
	}
	fmt.Fprintf(w, "queues: explain_waiting %s  inflight %s  jobs %s  running %s   runtime: goroutines %s  heap %s\n",
		fmtLast(series["queue.explain_waiting"], "%.0f"),
		fmtLast(series["queue.explain_inflight"], "%.0f"),
		fmtLast(series["queue.jobs"], "%.0f"),
		fmtLast(series["jobs.running"], "%.0f"),
		fmtLast(series["runtime.goroutines"], "%.0f"),
		fmtBytes(float64(series["runtime.heap_bytes"].Last)))

	// Per-spec quality lines, sorted by spec.
	var specs []string
	for name := range series {
		if strings.HasPrefix(name, "spec.") && strings.HasSuffix(name, ".explanations_rps") {
			specs = append(specs, strings.TrimSuffix(strings.TrimPrefix(name, "spec."), ".explanations_rps"))
		}
	}
	sort.Strings(specs)
	for _, spec := range specs {
		fmt.Fprintf(w, "quality %-24s %s expl/s  precision %s  %s\n",
			spec,
			fmtLast(series["spec."+spec+".explanations_rps"], "%.1f"),
			fmtLast(series["spec."+spec+".precision_mean"], "%.3f"),
			inspect.Sparkline(points(series["spec."+spec+".explanations_rps"]), width/2))
	}
}

func renderCluster(w io.Writer, st *wire.ClusterStatus) {
	fmt.Fprintf(w, "\n== cluster  (leases %d dispatched / %d released, stragglers %d, deaths %d, blocks %d, shard errors %d)\n",
		st.LeasesDispatched, st.LeasesReleased, st.StragglerDispatches,
		st.WorkerDeaths, st.BlocksDone, st.ShardErrors)
	if len(st.Workers) == 0 {
		return
	}
	fmt.Fprintf(w, "%-40s %-8s %9s %8s %8s\n", "WORKER", "STATE", "INFLIGHT", "BLOCKS", "FAILURES")
	for _, worker := range st.Workers {
		fmt.Fprintf(w, "%-40s %-8s %5d/%-3d %8d %8d\n",
			worker.ID, worker.State, worker.Inflight, worker.Capacity,
			worker.BlocksDone, worker.Failures)
	}
}

func renderOutliers(w io.Writer, outliers []obs.OutlierTrace, max int) {
	if len(outliers) == 0 {
		return
	}
	if max > 0 && len(outliers) > max {
		outliers = outliers[:max]
	}
	fmt.Fprintf(w, "\n== outliers  (slow/5xx traces retained regardless of sampling)\n")
	for _, o := range outliers {
		proc := o.Process
		if proc == "" {
			proc = "local"
		}
		fmt.Fprintf(w, "%s  %-10s %3d %-5s %9s  %-20s %s\n",
			o.Start.UTC().Format("15:04:05"), o.Route, o.Status, o.Reason,
			inspect.FormatUS(o.DurationUS), proc, o.TraceID)
	}
}

func fmtBytes(v float64) string {
	if math.IsNaN(v) {
		return "—"
	}
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	}
	return fmt.Sprintf("%.0fB", v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "comet-top:", err)
	os.Exit(1)
}
