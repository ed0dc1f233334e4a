package persist

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/comet-explain/comet/internal/wire"
)

// probe is the record FuzzOpenSegment appends after opening a fuzzed
// segment; its kind is one no segment writer uses.
var probe = &wire.Record{V: wire.RecordVersion, Kind: "fuzz-probe", Key: "probe", Spec: "c@hsw"}

// liveRecords returns every record Scan yields, keyed by (kind, key),
// as JSON.
func liveRecords(t *testing.T, l *Log) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := l.Scan(func(r *wire.Record) bool {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[indexKey(r.Kind, r.Key)] = string(b)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// wantServed checks that Get returns exactly the records Scan yielded.
func wantServed(t *testing.T, l *Log, recs map[string]string, stage string) {
	t.Helper()
	for _, want := range recs {
		var r wire.Record
		if err := json.Unmarshal([]byte(want), &r); err != nil {
			t.Fatal(err)
		}
		got, ok := l.Get(r.Kind, r.Key)
		if !ok {
			t.Fatalf("%s: Scan yielded %s/%s but Get misses it", stage, r.Kind, r.Key)
		}
		if b, _ := json.Marshal(got); string(b) != want {
			t.Fatalf("%s: Get(%s/%s) = %s, Scan yielded %s", stage, r.Kind, r.Key, b, want)
		}
	}
}

// FuzzOpenSegment: recovery never panics on arbitrary segment bytes,
// every record a scan of the recovered store yields is served by Get,
// and appends start at the last intact frame — a Put made after Open
// survives Close and a reopen, next to everything recovered before it.
func FuzzOpenSegment(f *testing.F) {
	seedDir := f.TempDir()
	l, err := Open(seedDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []*wire.Record{rec("a", 1), rec("b", 2)} {
		if err := l.Put(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(segPath(seedDir, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, n := range []int{len(valid) - 1, len(valid) / 2, headerSize + 3, headerSize, 3, 0} {
		f.Add(valid[:n])
	}
	flipped := append([]byte(nil), valid...)
	flipped[headerSize+5] ^= 0xFF
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyDir(dir); err != nil {
			t.Fatalf("VerifyDir: %v", err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		recovered := liveRecords(t, l)
		wantServed(t, l, recovered, "after open")

		if err := l.Put(probe); err != nil {
			t.Fatalf("Put after open: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l.Close()
		got, ok := l.Get(probe.Kind, probe.Key)
		if !ok {
			t.Fatal("the record put after open did not survive a reopen")
		}
		if got.Spec != probe.Spec {
			t.Fatalf("probe came back as %+v", got)
		}
		wantServed(t, l, recovered, "after reopen")
		if _, err := VerifyDir(dir); err != nil {
			t.Fatalf("VerifyDir after reopen: %v", err)
		}
	})
}
