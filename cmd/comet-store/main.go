// Command comet-store inspects and maintains durable explanation stores
// (the -store-dir of comet-serve, the -store of comet and comet-bench).
//
//	comet-store -dir DIR stats      store size, hit, and corruption counters
//	comet-store -dir DIR ls         list live records (filter with -kind)
//	comet-store -dir DIR get KEY    print one record's JSON
//	comet-store -dir DIR compact    drop superseded and LRU-evicted records
//	comet-store -dir DIR verify     read-only integrity scan of every segment
//
// stats, ls, and get open the store read-only: they never truncate torn
// tails or mutate anything, so they are safe to run against a store a
// live server is writing (a record being appended at that instant may
// show up as one torn frame). verify is pure reads too and reports —
// rather than repairs — corruption; with -strict it exits non-zero when
// any corrupt frame is found. compact opens the store read-write and
// garbage-collects it under -max-bytes; run it only on quiescent stores.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/version"
	"github.com/comet-explain/comet/internal/wire"
)

func main() {
	var (
		dir         = flag.String("dir", "", "store directory (required)")
		kind        = flag.String("kind", "", "ls: only records of this kind (explanation | job)")
		maxBytes    = flag.Int64("max-bytes", 1<<30, "compact: live-data budget (0 = 1 GiB; negative = unbounded, which still drops superseded records)")
		strict      = flag.Bool("strict", false, "verify: exit non-zero when any corrupt frame is found")
		asJSON      = flag.Bool("json", false, "stats/verify: emit machine-readable JSON")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("comet-store"))
		return
	}
	if *dir == "" || flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: comet-store -dir DIR <stats|ls|get KEY|compact|verify>")
		os.Exit(2)
	}

	var err error
	switch cmd := flag.Arg(0); cmd {
	case "stats":
		err = runStats(*dir, *asJSON)
	case "ls":
		err = runLs(*dir, *kind)
	case "get":
		if flag.NArg() < 2 {
			err = fmt.Errorf("get needs a key")
			break
		}
		err = runGet(*dir, flag.Arg(1))
	case "compact":
		err = runCompact(*dir, *maxBytes)
	case "verify":
		err = runVerify(*dir, *strict, *asJSON)
	default:
		err = fmt.Errorf("unknown command %q (want stats, ls, get, compact, or verify)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "comet-store:", err)
		os.Exit(1)
	}
}

func openRO(dir string) (*persist.Log, error) {
	return persist.Open(dir, persist.Options{ReadOnly: true})
}

func runStats(dir string, asJSON bool) error {
	log, err := openRO(dir)
	if err != nil {
		return err
	}
	defer log.Close()
	st := log.Stats()
	if asJSON {
		return json.NewEncoder(os.Stdout).Encode(st)
	}
	fmt.Printf("store:    %s\n", dir)
	fmt.Printf("entries:  %d live records in %d segments\n", st.Entries, st.Segments)
	fmt.Printf("bytes:    %d live, %d on disk\n", st.LiveBytes, st.TotalBytes)
	fmt.Printf("corrupt:  %d frames skipped on open\n", st.CorruptRecords)
	return nil
}

func runLs(dir, kind string) error {
	log, err := openRO(dir)
	if err != nil {
		return err
	}
	defer log.Close()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "KIND\tKEY\tSPEC\tDETAIL")
	err = log.Scan(func(rec *wire.Record) bool {
		if kind != "" && rec.Kind != kind {
			return true
		}
		detail := ""
		switch {
		case rec.Explanation != nil:
			detail = fmt.Sprintf("prediction=%.2f features=%d seed=%d",
				rec.Explanation.Prediction, len(rec.Explanation.Features), recSeed(rec))
		case rec.Job != nil:
			detail = fmt.Sprintf("state=%s blocks=%d failed=%d", rec.Job.State, len(rec.Job.Blocks), len(rec.Job.Failures))
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", rec.Kind, rec.Key, rec.Spec, detail)
		return true
	})
	if err != nil {
		return err
	}
	return w.Flush()
}

func recSeed(rec *wire.Record) int64 {
	if rec.Config == nil {
		return 0
	}
	return rec.Config.Seed
}

func runGet(dir, key string) error {
	log, err := openRO(dir)
	if err != nil {
		return err
	}
	defer log.Close()
	for _, kind := range []string{wire.RecordExplanation, wire.RecordJob} {
		if rec, ok := log.Get(kind, key); ok {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(rec)
		}
	}
	return fmt.Errorf("no record with key %q", key)
}

func runCompact(dir string, maxBytes int64) error {
	log, err := persist.Open(dir, persist.Options{MaxBytes: maxBytes})
	if err != nil {
		return err
	}
	defer log.Close()
	before := log.Stats()
	if err := log.Compact(); err != nil {
		return err
	}
	after := log.Stats()
	fmt.Printf("compacted: %d → %d bytes on disk, %d entries kept, %d evicted\n",
		before.TotalBytes, after.TotalBytes, after.Entries, after.Evictions-before.Evictions)
	return nil
}

func runVerify(dir string, strict, asJSON bool) error {
	rep, err := persist.VerifyDir(dir)
	if err != nil {
		return err
	}
	if asJSON {
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Println(rep)
	}
	if strict && !rep.Clean() {
		return fmt.Errorf("%d corrupt frames", rep.Corrupt)
	}
	return nil
}
