package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/wire"
)

// rec builds a minimal explanation record: key and a distinguishing
// prediction.
func rec(key string, pred float64) *wire.Record {
	return &wire.Record{
		V:    wire.RecordVersion,
		Kind: wire.RecordExplanation,
		Key:  key,
		Spec: "c@hsw",
		Explanation: &wire.Explanation{
			Block:      "add rcx, rax",
			Model:      "c",
			Prediction: pred,
		},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func mustPut(t *testing.T, l *Log, r *wire.Record) {
	t.Helper()
	if err := l.Put(r); err != nil {
		t.Fatalf("Put(%s): %v", r.Key, err)
	}
}

func wantGet(t *testing.T, l *Log, key string, pred float64) {
	t.Helper()
	got, ok := l.Get(wire.RecordExplanation, key)
	if !ok {
		t.Fatalf("Get(%s): missing", key)
	}
	if got.Explanation == nil || got.Explanation.Prediction != pred {
		t.Fatalf("Get(%s): prediction %+v, want %v", key, got.Explanation, pred)
	}
}

func wantMiss(t *testing.T, l *Log, key string) {
	t.Helper()
	if _, ok := l.Get(wire.RecordExplanation, key); ok {
		t.Fatalf("Get(%s): present, want miss", key)
	}
}

// soleSegment returns the path of the store's only segment file.
func soleSegment(t *testing.T, dir string) string {
	t.Helper()
	seqs, err := segmentSeqs(dir)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("want exactly one segment, got %v (err %v)", seqs, err)
	}
	return segPath(dir, seqs[0])
}

func TestPutGetSupersedeReopen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	mustPut(t, l, rec("a", 1))
	mustPut(t, l, rec("b", 2))
	mustPut(t, l, rec("a", 3)) // supersedes
	wantGet(t, l, "a", 3)
	wantGet(t, l, "b", 2)
	wantMiss(t, l, "c")
	st := l.Stats()
	if st.Entries != 2 || st.Puts != 3 || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats %+v, want 2 entries / 3 puts / 2 hits / 1 miss", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, Options{})
	wantGet(t, l2, "a", 3)
	wantGet(t, l2, "b", 2)
	if st := l2.Stats(); st.Entries != 2 || st.CorruptRecords != 0 {
		t.Errorf("reopened stats %+v, want 2 clean entries", st)
	}
}

// TestTornTailRecovery is the crash-recovery acceptance criterion: a
// record truncated mid-byte (the residue of a SIGKILL or power loss
// during a write) is detected, counted, and truncated away; the store
// reopens clean and appends normally afterwards.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	mustPut(t, l, rec("a", 1))
	mustPut(t, l, rec("b", 2))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: cut the last record mid-payload.
	path := soleSegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, Options{})
	if st := l2.Stats(); st.CorruptRecords != 1 {
		t.Errorf("corrupt counter = %d after torn tail, want 1", st.CorruptRecords)
	}
	wantGet(t, l2, "a", 1)
	wantMiss(t, l2, "b")

	// The torn bytes were truncated: appends land on a frame boundary
	// and the next open is clean.
	mustPut(t, l2, rec("c", 3))
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := mustOpen(t, dir, Options{})
	wantGet(t, l3, "a", 1)
	wantGet(t, l3, "c", 3)
	if st := l3.Stats(); st.CorruptRecords != 0 || st.Entries != 2 {
		t.Errorf("post-recovery stats %+v, want 2 clean entries", st)
	}
}

// TestChecksumFlipSkipsRecord is the other half of the crash-recovery
// criterion: a mid-file record whose checksum no longer matches (bit
// rot, tampering) is skipped and counted; its neighbors survive.
func TestChecksumFlipSkipsRecord(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	mustPut(t, l, rec("a", 1))
	off := l.Stats().TotalBytes // start of record b's frame
	mustPut(t, l, rec("b", 2))
	mustPut(t, l, rec("c", 3))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := soleSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off+8] ^= 0xFF // flip a byte of b's checksum field
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, Options{})
	if st := l2.Stats(); st.CorruptRecords != 1 || st.Entries != 2 {
		t.Errorf("stats %+v, want 1 corrupt record and 2 surviving entries", l2.Stats())
	}
	wantGet(t, l2, "a", 1)
	wantMiss(t, l2, "b")
	wantGet(t, l2, "c", 3)
}

// TestHeaderCorruptionResyncs: trashing a record's magic marker loses
// that record but the scanner resynchronizes on the next frame.
func TestHeaderCorruptionResyncs(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	mustPut(t, l, rec("a", 1))
	off := l.Stats().TotalBytes
	mustPut(t, l, rec("b", 2))
	mustPut(t, l, rec("c", 3))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := soleSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data[off:], []byte{0xDE, 0xAD, 0xBE, 0xEF}) // destroy b's magic
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, Options{})
	wantGet(t, l2, "a", 1)
	wantMiss(t, l2, "b")
	wantGet(t, l2, "c", 3)
	if st := l2.Stats(); st.CorruptRecords == 0 {
		t.Error("header corruption not counted")
	}
}

func TestCompactionDropsSupersededAndEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxBytes: -1})
	var frame int64
	for i := 1; i <= 5; i++ {
		before := l.Stats().TotalBytes
		mustPut(t, l, rec(fmt.Sprintf("k%d", i), float64(i)))
		frame = l.Stats().TotalBytes - before
	}
	mustPut(t, l, rec("k3", 33)) // supersede k3
	wantGet(t, l, "k1", 1)       // k1 is now most recently used

	// Budget for two records: keep the MRU two (k1, then k3's fresh
	// copy), evict the rest, drop the shadowed k3 frame.
	l.opts.MaxBytes = 2 * (frame + 8)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Entries != 2 || st.Evictions != 3 || st.Compactions != 1 {
		t.Fatalf("stats %+v, want 2 entries / 3 evictions / 1 compaction", st)
	}
	if st.TotalBytes != st.LiveBytes {
		t.Errorf("compacted store has %d total vs %d live bytes, want equal", st.TotalBytes, st.LiveBytes)
	}
	wantGet(t, l, "k1", 1)
	wantGet(t, l, "k3", 33)
	wantMiss(t, l, "k2")
	wantMiss(t, l, "k4")
	wantMiss(t, l, "k5")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Recency survives the restart: compaction wrote LRU→MRU order.
	l2 := mustOpen(t, dir, Options{})
	var order []string
	if err := l2.Scan(func(r *wire.Record) bool {
		order = append(order, r.Key)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "k3" || order[1] != "k1" {
		t.Errorf("reopened LRU→MRU order %v, want [k3 k1]", order)
	}
}

func TestAutoCompactionBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	var frame int64
	{
		probe := mustOpen(t, t.TempDir(), Options{})
		mustPut(t, probe, rec("p", 1))
		frame = probe.Stats().TotalBytes
	}
	budget := 4 * frame
	l := mustOpen(t, dir, Options{MaxBytes: budget, CompactFactor: 2})
	for i := 0; i < 64; i++ {
		mustPut(t, l, rec(fmt.Sprintf("k%d", i), float64(i)))
	}
	st := l.Stats()
	if st.Compactions == 0 {
		t.Error("no automatic compaction despite exceeding the budget")
	}
	if st.TotalBytes > 3*budget {
		t.Errorf("disk usage %d not bounded (budget %d)", st.TotalBytes, budget)
	}
	// The most recent put always survives.
	wantGet(t, l, "k63", 63)
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 256, MaxBytes: -1})
	for i := 0; i < 10; i++ {
		mustPut(t, l, rec(fmt.Sprintf("k%d", i), float64(i)))
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("got %d segments, want rotation past 1", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		wantGet(t, l2, fmt.Sprintf("k%d", i), float64(i))
	}
}

func TestScanRecencyOrder(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	mustPut(t, l, rec("a", 1))
	mustPut(t, l, rec("b", 2))
	mustPut(t, l, rec("c", 3))
	wantGet(t, l, "a", 1) // refresh a to MRU
	var order []string
	if err := l.Scan(func(r *wire.Record) bool {
		order = append(order, r.Key)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "c", "a"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("scan order %v, want %v", order, want)
		}
	}
}

func TestReadOnlyOpenNeverMutates(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	mustPut(t, l, rec("a", 1))
	mustPut(t, l, rec("b", 2))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := soleSegment(t, dir)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	tornSize := fi.Size() - 5

	ro := mustOpen(t, dir, Options{ReadOnly: true})
	wantGet(t, ro, "a", 1)
	if st := ro.Stats(); st.CorruptRecords != 1 {
		t.Errorf("read-only open counted %d corrupt, want 1", st.CorruptRecords)
	}
	if err := ro.Put(rec("c", 3)); err == nil {
		t.Error("Put succeeded on a read-only store")
	}
	if err := ro.Compact(); err == nil {
		t.Error("Compact succeeded on a read-only store")
	}
	fi2, _ := os.Stat(path)
	if fi2.Size() != tornSize {
		t.Errorf("read-only open changed the file size %d → %d", tornSize, fi2.Size())
	}
}

func TestVerifyDirReports(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	mustPut(t, l, rec("a", 1))
	off := l.Stats().TotalBytes
	mustPut(t, l, rec("b", 2))
	mustPut(t, l, rec("a", 3)) // supersede: 3 records, 2 live
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Records != 3 || rep.LiveEntries != 2 {
		t.Errorf("clean store report %+v, want 3 records / 2 live / clean", rep)
	}

	// Flip a checksum byte and verify again — read-only, so the damage
	// is reported on every pass, never repaired.
	path := soleSegment(t, dir)
	data, _ := os.ReadFile(path)
	data[off+8] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		rep, err = VerifyDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Clean() || rep.Corrupt != 1 || rep.Records != 2 {
			t.Errorf("pass %d: corrupted store report %+v, want 2 records / 1 corrupt", pass, rep)
		}
	}
}

// TestExplanationRoundTrip: PutExplanation then LookupExplanation serves
// the explanation back byte-identical on the wire, also after a reopen;
// the content address covers the effective config, so another seed's ID
// misses, and a record without an explanation is a miss too.
func TestExplanationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	w := &wire.Explanation{
		Block:      "add rcx, rax\nmov rdx, rcx",
		Model:      "c",
		Prediction: 1.25,
		Precision:  0.8,
		Coverage:   0.5,
		Certified:  true,
		Queries:    10,
	}
	want, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	snap := wire.SnapshotConfig(core.ApplyOptions(core.Config{Seed: 7}))
	id := ExplanationID("c@hsw", snap, w.Block)
	if err := PutExplanation(l, id, "c@hsw", snap, w); err != nil {
		t.Fatal(err)
	}
	lookup := func(l *Log) {
		t.Helper()
		got, ok := LookupExplanation(l, id)
		if !ok {
			t.Fatal("stored explanation not found")
		}
		if b, _ := json.Marshal(got); !bytes.Equal(b, want) {
			t.Errorf("round trip changed the explanation:\n got %s\nwant %s", b, want)
		}
	}
	lookup(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, dir, Options{})
	lookup(l)

	other := snap
	other.Seed = 8
	if _, ok := LookupExplanation(l, ExplanationID("c@hsw", other, w.Block)); ok {
		t.Error("a different seed served the same explanation")
	}
	empty := ExplanationID("c@hsw", snap, "pop rbx")
	if err := PutExplanation(l, empty, "c@hsw", snap, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := LookupExplanation(l, empty); ok {
		t.Error("a record without an explanation was served")
	}
}

// TestVerifyDirMissingIsAnError: a typoed path must not pass a strict
// audit as a vacuously clean store.
// TestPerWorkerSamplingRecordsMiss: builds that drew Γ samples from
// per-worker streams hashed the worker count (par=) into an
// explanation's key. Their records hold explanations the current
// sampling does not compute, so a lookup under today's key must miss
// and the explanation is recomputed rather than served. Builds that
// hashed the batch size (batch=), or certified at the Anchors default
// level and so hashed no certification rule (cert=), wrote keys the
// current build never looks up either.
func TestPerWorkerSamplingRecordsMiss(t *testing.T) {
	const spec, block = "c@hsw", "add rcx, rax\nmov rdx, rcx"
	l := mustOpen(t, t.TempDir(), Options{})
	snap := wire.SnapshotConfig(core.ApplyOptions(core.Config{Seed: 7}))
	for _, format := range []string{
		"comet-explanation-v%d|%s|eps=%g|thr=%g|cov=%d|batch=64|par=1|seed=%d|%s",
		"comet-explanation-v%d|%s|eps=%g|thr=%g|cov=%d|batch=64|seed=%d|%s",
		"comet-explanation-v%d|%s|eps=%g|thr=%g|cov=%d|seed=%d|%s",
	} {
		h := sha256.New()
		fmt.Fprintf(h, format, wire.RecordVersion, spec,
			snap.Epsilon, snap.PrecisionThreshold, snap.CoverageSamples, snap.Seed, block)
		var old wire.ContentID
		h.Sum(old[:0])
		if err := PutExplanation(l, old, spec, snap, &wire.Explanation{Block: block, Model: "c"}); err != nil {
			t.Fatal(err)
		}
		if _, ok := LookupExplanation(l, old); !ok {
			t.Fatalf("%s: record under the old key not stored", format)
		}
	}
	if _, ok := LookupExplanation(l, ExplanationID(spec, snap, block)); ok {
		t.Error("a record keyed with the worker count or batch size, or without the certification rule, was served under the current key")
	}
}

func TestVerifyDirMissingIsAnError(t *testing.T) {
	if _, err := VerifyDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("VerifyDir on a missing directory reported a clean store")
	}
}
