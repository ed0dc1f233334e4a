// Command comet-bench regenerates the paper's tables and figures (one
// per experiments.AllIDs entry) and runs the wire benchmark that
// `make bench-check` gates on. Engine speed is measured by perfbench.
//
// Examples:
//
//	comet-bench -experiment table2
//	comet-bench -all
//	comet-bench -all -full        # paper-scale parameters (hours)
//	comet-bench -wire -json-out BENCH_current.json -check BENCH_baseline.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/comet-explain/comet/internal/experiments"
	"github.com/comet-explain/comet/internal/version"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id: "+strings.Join(experiments.AllIDs(), ", "))
		all        = flag.Bool("all", false, "run every experiment")
		full       = flag.Bool("full", false, "paper-scale parameters (hours)")
		blocks     = flag.Int("blocks", 0, "override test-set size")
		seeds      = flag.Int("seeds", 0, "override seed count")
		coverage   = flag.Int("coverage-samples", 0, "override coverage pool size")
		train      = flag.Int("train-blocks", 0, "override ithemal training-set size")
		quiet      = flag.Bool("q", false, "suppress progress output")

		wireMode     = flag.Bool("wire", false, "wire benchmark: warm-path explain requests/s over the JSON facade vs the binary frame codec (byte-identity verified), plus a stream-only corpus job's memory profile")
		wireRequests = flag.Int("wire-requests", 5000, "with -wire: warm-path requests measured per encoding")
		streamBlocks = flag.Int("stream-blocks", 100000, "with -wire: blocks in the streamed corpus job")
		jsonOut      = flag.String("json-out", "", "with -wire: write the machine-readable summary (the BENCH_baseline.json schema) to this file")
		checkPath    = flag.String("check", "", "with -wire: compare against this baseline summary (BENCH_baseline.json) and exit non-zero on >25% binary-speedup regression or >10% per-request allocation growth")
		showVersion  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("comet-bench"))
		return
	}

	if *wireMode {
		if err := wireBench(*wireRequests, *streamBlocks, *jsonOut, *checkPath); err != nil {
			fmt.Fprintln(os.Stderr, "comet-bench:", err)
			os.Exit(1)
		}
		return
	}

	params := experiments.DefaultParams()
	if *full {
		params = experiments.PaperParams()
	}
	if *blocks > 0 {
		params.Blocks = *blocks
	}
	if *seeds > 0 {
		params.Seeds = *seeds
	}
	if *coverage > 0 {
		params.CoverageSamples = *coverage
	}
	if *train > 0 {
		params.TrainBlocks = *train
	}
	if !*quiet {
		params.Progress = os.Stderr
	}

	var ids []string
	switch {
	case *all:
		ids = experiments.AllIDs()
	case *experiment != "":
		ids = strings.Split(*experiment, ",")
	default:
		fmt.Fprintln(os.Stderr, "comet-bench: pass -experiment <id> or -all; ids:", strings.Join(experiments.AllIDs(), ", "))
		os.Exit(2)
	}

	session := experiments.NewSession(params)
	for _, id := range ids {
		table, err := session.Run(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, "comet-bench:", err)
			os.Exit(1)
		}
		table.Render(os.Stdout)
	}
}
