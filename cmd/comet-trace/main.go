// Command comet-trace fetches and renders distributed traces from a
// comet-serve process.
//
// With only a server URL it lists the traces the server's span ring
// still holds, most recent first. With a trace ID it fetches every
// recorded span — by default with ?cluster=1, so a coordinator answers
// with the federated view (its own spans merged with every pool
// worker's) — and renders the parent-linked span tree with wall-time
// bars and per-span attributes, per-explanation profile stages included:
//
//	$ comet-trace http://127.0.0.1:8372
//	TRACE                             ROOT         SPANS  START                 DURATION
//	86a1f07b2c...                     http.corpus     14  2026-08-08T10:11:12Z  412.3ms
//
//	$ comet-trace http://127.0.0.1:8372 86a1f07b2c...
//	http.corpus          1.2ms ▐█────────────────────────────▌ process=coordinator blocks=8 ...
//	  job.run          410.9ms ▐─█████████████████████████████▌ process=coordinator job_id=...
//	    http.shard    118.4ms ▐──███████─────────────────────▌ process=http://127.0.0.1:40121 ...
//
// Flags: -local skips federation (the queried process's own spans only),
// -json prints the raw span JSON instead of the tree, -width sets the
// bar width, -route/-min-ms filter the listing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"github.com/comet-explain/comet/internal/inspect"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/version"
	"github.com/comet-explain/comet/internal/wire"
)

func main() {
	var (
		local       = flag.Bool("local", false, "fetch only the queried process's own spans (skip ?cluster=1 federation)")
		rawJSON     = flag.Bool("json", false, "print the server's span JSON instead of the rendered tree")
		width       = flag.Int("width", 30, "wall-time bar width in cells")
		limit       = flag.Int("limit", 20, "traces shown when listing (no trace ID given)")
		route       = flag.String("route", "", "listing filter: only traces rooted at this route")
		minMS       = flag.Int("min-ms", 0, "listing filter: only traces at least this slow")
		timeout     = flag.Duration("timeout", 15*time.Second, "HTTP timeout")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: comet-trace [flags] <server-url> [trace-id]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("comet-trace"))
		return
	}
	args := flag.Args()
	if len(args) < 1 || len(args) > 2 {
		flag.Usage()
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}
	base := wire.BaseURL(args[0])

	if len(args) == 1 {
		if err := listTraces(os.Stdout, client, base, *limit, *route, *minMS); err != nil {
			fatal(err)
		}
		return
	}
	if err := showTrace(os.Stdout, client, base, args[1], !*local, *rawJSON, *width); err != nil {
		fatal(err)
	}
}

// listTraces renders GET /debug/traces as a table.
func listTraces(w io.Writer, client *http.Client, base string, limit int, route string, minMS int) error {
	u := fmt.Sprintf("%s/debug/traces?limit=%d", base, limit)
	if route != "" {
		u += "&route=" + url.QueryEscape(route)
	}
	if minMS > 0 {
		u += fmt.Sprintf("&min_ms=%d", minMS)
	}
	type listing struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	body, err := wire.Call[listing](context.Background(), client, u, "", nil)
	if err != nil {
		return err
	}
	if len(body.Traces) == 0 {
		fmt.Fprintln(w, "no traces recorded (is -trace-sample off, or has the ring aged out?)")
		return nil
	}
	fmt.Fprintf(w, "%-34s %-14s %6s  %-20s  %s\n", "TRACE", "ROOT", "SPANS", "START", "DURATION")
	for _, t := range body.Traces {
		fmt.Fprintf(w, "%-34s %-14s %6d  %-20s  %s\n",
			t.TraceID, t.Root, t.Spans,
			t.Start.UTC().Format(time.RFC3339), inspect.FormatUS(t.DurationUS))
	}
	return nil
}

// showTrace fetches one trace (federated unless told otherwise) and
// renders the span tree.
func showTrace(w io.Writer, client *http.Client, base, id string, federate, rawJSON bool, width int) error {
	u := base + "/debug/traces/" + id
	if federate {
		u += "?cluster=1"
	}
	type traceView struct {
		TraceID   string `json:"trace_id"`
		Cluster   bool   `json:"cluster"`
		Processes []struct {
			Process string `json:"process"`
			Spans   int    `json:"spans"`
			Error   string `json:"error,omitempty"`
		} `json:"processes"`
		Spans []obs.SpanRecord `json:"spans"`
	}
	body, err := wire.Call[traceView](context.Background(), client, u, "", nil)
	if err != nil {
		return err
	}
	if rawJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(body)
	}
	if len(body.Processes) > 0 {
		fmt.Fprintf(w, "trace %s — %d spans from %d processes\n", body.TraceID, len(body.Spans), len(body.Processes))
		for _, p := range body.Processes {
			if p.Error != "" {
				fmt.Fprintf(w, "  %-40s %4d spans  (unreachable: %s)\n", p.Process, p.Spans, p.Error)
			} else {
				fmt.Fprintf(w, "  %-40s %4d spans\n", p.Process, p.Spans)
			}
		}
		fmt.Fprintln(w)
	} else {
		fmt.Fprintf(w, "trace %s — %d spans\n\n", body.TraceID, len(body.Spans))
	}
	// Server output is start-ordered already, but MergeSpans is cheap
	// insurance that local views render in the same canonical order.
	spans := obs.MergeSpans(body.Spans)
	obs.WriteTree(w, spans, width)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "comet-trace:", err)
	os.Exit(1)
}
