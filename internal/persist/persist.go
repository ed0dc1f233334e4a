// Package persist is the durable explanation store: a crash-safe,
// disk-backed, content-addressed store for explanation artifacts and
// corpus-job checkpoints that outlives the process. COMET explanations
// are expensive (hundreds to thousands of cost-model queries per block)
// but deterministic given (canonical model spec, canonical block text,
// effective config, seed), which makes them ideal cache entries to
// persist across restarts, deploys, and crashes.
//
// # Layout
//
// A store is a directory of append-only segment files (00000001.seg,
// 00000002.seg, ...). Each segment holds a sequence of frames:
//
//	magic "CMT1" (4B) | payload length (4B LE) | CRC-32C of payload (4B LE) | payload
//
// The payload is one wire.Record in the same stable JSON the HTTP API
// speaks, so the on-disk schema is the versioned wire format. Records
// are never rewritten in place: a Put of an existing key appends a
// superseding record, and compaction later drops the shadowed frames.
//
// # Crash safety
//
// Every Put is a single write(2) of a complete frame, so a record is
// either fully in the OS page cache or not written at all; completed
// writes survive SIGKILL. Sync flushes to stable storage for power-loss
// durability — callers checkpoint at their own cadence. On open the log
// is scanned sequentially: a torn frame at the tail of the newest
// segment (a write cut short by a crash) is detected by its incomplete
// or checksum-failing frame, counted, and truncated away; a corrupt
// frame in the middle of a segment (bit rot, a flipped byte) is counted
// and skipped, resynchronizing on the next magic marker. Corruption is
// never a panic and never silently served.
//
// # Index, recency, and compaction
//
// An in-memory index (key → segment, offset) is rebuilt on open; reads
// are one ReadAt. Entries are tracked in recency order; Compact rewrites
// live records oldest-first into a fresh segment, dropping superseded
// frames and — when the store exceeds its size budget — the least
// recently used entries, then atomically replaces the old segments.
// Because compaction writes in recency order, a reopened store inherits
// the previous process's LRU order.
package persist

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/comet-explain/comet/internal/wire"
)

// Frame layout constants. The framing itself (magic, length, CRC-32C)
// lives in internal/wire — the same envelope the network codec speaks —
// so the segment log only supplies the payload schema (JSON Records).
const (
	headerSize     = wire.FrameHeaderSize
	maxRecordBytes = wire.MaxFramePayload // sanity bound on a single frame's payload
)

var (
	errClosed   = errors.New("persist: store is closed")
	errReadOnly = errors.New("persist: store is read-only")
)

// Options sizes a store. Zero values get production-sane defaults.
type Options struct {
	// MaxBytes is the live-data budget enforced at compaction: when live
	// records exceed it, the least recently used entries are evicted
	// until the survivors fit (0 = 1 GiB; negative = unbounded).
	MaxBytes int64
	// SegmentBytes rotates the active segment once it grows past this
	// size (0 = 64 MiB).
	SegmentBytes int64
	// CompactFactor triggers automatic compaction from Put when total
	// on-disk bytes exceed CompactFactor × MaxBytes (0 = 2). Ignored
	// when MaxBytes is unbounded; Compact can always be called manually.
	CompactFactor float64
	// ReadOnly opens the store for inspection: torn tails are counted
	// but not truncated, and Put/Compact/Sync fail. comet-store uses
	// this so audits never mutate a live store.
	ReadOnly bool
}

func (o Options) withDefaults() Options {
	if o.MaxBytes == 0 {
		o.MaxBytes = 1 << 30
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.CompactFactor <= 1 {
		o.CompactFactor = 2
	}
	return o
}

// Stats snapshots a store's size and effectiveness counters.
type Stats struct {
	// Entries is the number of live (indexed) records.
	Entries int `json:"entries"`
	// LiveBytes is the on-disk footprint of live records.
	LiveBytes int64 `json:"live_bytes"`
	// TotalBytes is the on-disk footprint of all segments, including
	// superseded frames awaiting compaction.
	TotalBytes int64 `json:"total_bytes"`
	// Segments is the number of segment files.
	Segments int `json:"segments"`

	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Puts   uint64 `json:"puts"`
	// CorruptRecords counts frames skipped for a bad checksum, a bad
	// length, or a torn tail — across every scan since open.
	CorruptRecords uint64 `json:"corrupt_records"`
	// Evictions counts entries dropped by compaction to honor MaxBytes.
	Evictions uint64 `json:"evictions"`
	// Compactions counts completed compaction passes.
	Compactions uint64 `json:"compactions"`
}

// Store is the durable-store interface the serving and CLI layers
// program against. Log is the segment-log implementation; tests may
// substitute in-memory fakes.
type Store interface {
	// Get returns the live record under (kind, key) and refreshes its
	// recency. A missing or unreadable record reports false.
	Get(kind, key string) (*wire.Record, bool)
	// Put appends a record, superseding any live record with the same
	// (kind, key). The frame is handed to the OS before Put returns
	// (SIGKILL-durable); call Sync for power-loss durability.
	Put(rec *wire.Record) error
	// Scan visits every live record from least to most recently used;
	// returning false stops the scan. The callback must not call back
	// into the store.
	Scan(fn func(rec *wire.Record) bool) error
	// Compact rewrites live records into a fresh segment, dropping
	// superseded frames and evicting LRU entries beyond the size budget.
	Compact() error
	// Sync flushes the active segment to stable storage.
	Sync() error
	// Stats snapshots the store counters.
	Stats() Stats
	// Close syncs and releases the store.
	Close() error
}

// entry locates one live record in the segment files.
type entry struct {
	key  string // index key: kind + "\x00" + key
	seg  int
	off  int64
	size int64 // full frame size including header
}

// segment is one open log file.
type segment struct {
	seq  int
	path string
	f    *os.File
	size int64
}

// Log is the crash-safe segment-log Store implementation.
type Log struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	index  map[string]*list.Element // of *entry
	lru    *list.List               // front = most recently used
	segs   map[int]*segment
	active *segment
	closed bool

	liveBytes  int64
	totalBytes int64
	stats      Stats
}

var _ Store = (*Log)(nil)

// Open opens (or creates) the store at dir, rebuilding the in-memory
// index by scanning every segment. Corrupt frames are counted and
// skipped; a torn tail on the newest segment is truncated away (unless
// ReadOnly) so subsequent appends start from the last intact frame.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
	}
	l := &Log{
		dir:   dir,
		opts:  opts,
		index: make(map[string]*list.Element),
		lru:   list.New(),
		segs:  make(map[int]*segment),
	}
	seqs, err := segmentSeqs(dir)
	if err != nil {
		return nil, err
	}
	for i, seq := range seqs {
		last := i == len(seqs)-1
		if err := l.loadSegment(seq, last); err != nil {
			l.closeAll()
			return nil, err
		}
	}
	if len(seqs) == 0 && opts.ReadOnly {
		return l, nil // empty or missing dir: inspectable, trivially
	}
	if l.active == nil && !opts.ReadOnly {
		if err := l.openActive(1); err != nil {
			l.closeAll()
			return nil, err
		}
	}
	return l, nil
}

// segmentSeqs lists the segment sequence numbers in dir, ascending.
func segmentSeqs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("persist: %w", err)
	}
	var seqs []int
	for _, de := range entries {
		name := de.Name()
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(name, ".seg"))
		if err != nil || seq <= 0 {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, nil
}

func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.seg", seq))
}

// loadSegment scans one segment into the index. For the newest segment a
// torn tail is truncated (read-write stores) so the file ends on a frame
// boundary and becomes the active segment.
func (l *Log) loadSegment(seq int, last bool) error {
	path := segPath(l.dir, seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	res := scanFrames(data, func(off int64, frameSize int64, rec *wire.Record) {
		l.indexRecord(rec.Kind, rec.Key, seq, off, frameSize)
	})
	l.stats.CorruptRecords += uint64(res.corrupt)
	size := int64(len(data))
	if res.goodEnd < size && last && !l.opts.ReadOnly {
		// Torn tail: a crash cut the final write short. Truncate back to
		// the last intact frame so the log appends cleanly from here.
		if err := os.Truncate(path, res.goodEnd); err != nil {
			return fmt.Errorf("persist: truncating torn tail of %s: %w", path, err)
		}
		size = res.goodEnd
	}
	flags := os.O_RDONLY
	if last && !l.opts.ReadOnly {
		flags = os.O_RDWR
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if flags == os.O_RDWR {
		if _, err := f.Seek(size, 0); err != nil {
			f.Close()
			return fmt.Errorf("persist: %w", err)
		}
	}
	s := &segment{seq: seq, path: path, f: f, size: size}
	l.segs[seq] = s
	if last && !l.opts.ReadOnly {
		l.active = s
	}
	l.totalBytes += size
	return nil
}

// openActive creates and activates a fresh segment.
func (l *Log) openActive(seq int) error {
	path := segPath(l.dir, seq)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	s := &segment{seq: seq, path: path, f: f}
	l.segs[seq] = s
	l.active = s
	return nil
}

// scanResult reports one segment scan.
type scanResult struct {
	records int
	corrupt int
	// goodEnd is the offset just past the last complete frame — the
	// truncation point when the bytes beyond it are a torn tail.
	goodEnd int64
}

// scanFrames walks a segment's frames, invoking cb for every record that
// passes the checksum and decodes. The framing pass (checksums, magic
// resynchronization, torn-tail detection) is wire.ScanFrames — shared
// with the network codec; this wrapper adds the payload schema: frames
// whose payload is not a decodable Record are counted as corrupt, and
// future envelope versions are left on disk unindexed.
func scanFrames(data []byte, cb func(off int64, frameSize int64, rec *wire.Record)) scanResult {
	var res scanResult
	frames := wire.ScanFrames(data, func(off, size int64, payload []byte) {
		var rec wire.Record
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Kind == "" || rec.Key == "" {
			res.corrupt++
			return
		}
		if rec.V > RecordVersionMax {
			// A future envelope version: not corruption, but not ours to
			// interpret either. Leave it on disk, don't index it.
			return
		}
		res.records++
		if cb != nil {
			cb(off, size, &rec)
		}
	})
	res.corrupt += frames.Corrupt
	res.goodEnd = frames.GoodEnd
	return res
}

// RecordVersionMax is the newest envelope version this build reads.
const RecordVersionMax = wire.RecordVersion

func indexKey(kind, key string) string { return kind + "\x00" + key }

// indexRecord installs (or supersedes) an index entry and marks it most
// recently used. Caller holds l.mu (or is single-threaded in Open).
func (l *Log) indexRecord(kind, key string, seg int, off, size int64) {
	ik := indexKey(kind, key)
	if old, ok := l.index[ik]; ok {
		l.liveBytes -= old.Value.(*entry).size
		l.lru.Remove(old)
	}
	l.index[ik] = l.lru.PushFront(&entry{key: ik, seg: seg, off: off, size: size})
	l.liveBytes += size
}

// Get implements Store.
func (l *Log) Get(kind, key string) (*wire.Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, false
	}
	el, ok := l.index[indexKey(kind, key)]
	if !ok {
		l.stats.Misses++
		return nil, false
	}
	e := el.Value.(*entry)
	rec, err := l.readEntry(e)
	if err != nil {
		// The frame passed its checksum at open but is unreadable now
		// (I/O error, external tampering): drop it from the index rather
		// than serving garbage.
		l.stats.CorruptRecords++
		l.stats.Misses++
		l.liveBytes -= e.size
		l.lru.Remove(el)
		delete(l.index, e.key)
		return nil, false
	}
	l.lru.MoveToFront(el)
	l.stats.Hits++
	return rec, true
}

// readEntry reads and decodes one frame. Caller holds l.mu.
func (l *Log) readEntry(e *entry) (*wire.Record, error) {
	s, ok := l.segs[e.seg]
	if !ok {
		return nil, fmt.Errorf("persist: segment %d gone", e.seg)
	}
	buf := make([]byte, e.size)
	if _, err := s.f.ReadAt(buf, e.off); err != nil {
		return nil, err
	}
	payload, err := wire.VerifyFrame(buf)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var rec wire.Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// Put implements Store.
func (l *Log) Put(rec *wire.Record) error {
	if rec == nil || rec.Kind == "" || rec.Key == "" {
		return errors.New("persist: record needs a kind and a key")
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("persist: record of %d bytes exceeds the %d-byte frame bound", len(payload), maxRecordBytes)
	}
	frame, err := wire.AppendFrame(make([]byte, 0, headerSize+len(payload)), payload)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return errClosed
	case l.opts.ReadOnly:
		return errReadOnly
	}
	if l.active.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	// A single positional write of the complete frame: the record is
	// all-or-nothing in the OS page cache, so it survives SIGKILL; a
	// crash mid-write leaves a torn tail the next Open truncates. On a
	// failed or short write (ENOSPC, I/O error) the partial frame is
	// truncated away so the tracked size and the file stay aligned for
	// subsequent appends.
	if n, err := l.active.f.WriteAt(frame, l.active.size); err != nil {
		if n > 0 {
			_ = l.active.f.Truncate(l.active.size)
		}
		return fmt.Errorf("persist: %w", err)
	}
	off := l.active.size
	l.active.size += int64(len(frame))
	l.totalBytes += int64(len(frame))
	l.indexRecord(rec.Kind, rec.Key, l.active.seq, off, int64(len(frame)))
	l.stats.Puts++

	if l.opts.MaxBytes > 0 && float64(l.totalBytes) > l.opts.CompactFactor*float64(l.opts.MaxBytes) {
		return l.compactLocked()
	}
	return nil
}

// rotateLocked seals the active segment and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.active.f.Sync(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return l.openActive(l.nextSeqLocked())
}

func (l *Log) nextSeqLocked() int {
	max := 0
	for seq := range l.segs {
		if seq > max {
			max = seq
		}
	}
	return max + 1
}

// Scan implements Store.
func (l *Log) Scan(fn func(rec *wire.Record) bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	for el := l.lru.Back(); el != nil; el = el.Prev() {
		rec, err := l.readEntry(el.Value.(*entry))
		if err != nil {
			l.stats.CorruptRecords++
			continue
		}
		if !fn(rec) {
			return nil
		}
	}
	return nil
}

// Compact implements Store.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return errClosed
	case l.opts.ReadOnly:
		return errReadOnly
	}
	return l.compactLocked()
}

// compactLocked rewrites live records into a fresh segment, oldest-first
// so a reopened store inherits this process's recency order, evicting
// LRU entries beyond the MaxBytes budget. The rewrite is crash-safe: the
// new segment is fully written and synced under a temporary name, then
// renamed into place before the old segments are removed. A crash
// between the rename and the removals leaves duplicate live records,
// which the next open resolves by scan order.
func (l *Log) compactLocked() error {
	// Select survivors newest-first until the budget is spent.
	var keep []*entry
	var kept int64
	evicted := 0
	for el := l.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if l.opts.MaxBytes > 0 && kept+e.size > l.opts.MaxBytes && len(keep) > 0 {
			evicted++
			continue
		}
		keep = append(keep, e)
		kept += e.size
	}

	newSeq := l.nextSeqLocked()
	tmpPath := filepath.Join(l.dir, "compact.tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after a successful rename

	// Copy raw frames oldest-first (checksums carry over verbatim).
	type placed struct {
		e   *entry
		off int64
	}
	placements := make([]placed, 0, len(keep))
	var off int64
	for i := len(keep) - 1; i >= 0; i-- {
		e := keep[i]
		s, ok := l.segs[e.seg]
		if !ok {
			tmp.Close()
			return fmt.Errorf("persist: segment %d gone during compaction", e.seg)
		}
		buf := make([]byte, e.size)
		if _, err := s.f.ReadAt(buf, e.off); err != nil {
			tmp.Close()
			return fmt.Errorf("persist: %w", err)
		}
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()
			return fmt.Errorf("persist: %w", err)
		}
		placements = append(placements, placed{e: e, off: off})
		off += e.size
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	newPath := segPath(l.dir, newSeq)
	if err := os.Rename(tmpPath, newPath); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		tmp.Close()
		return err
	}

	// The compacted segment is durable; retire the old ones.
	for _, s := range l.segs {
		s.f.Close()
		os.Remove(s.path)
	}
	l.segs = map[int]*segment{newSeq: {seq: newSeq, path: newPath, f: tmp, size: off}}
	l.active = l.segs[newSeq]
	if _, err := tmp.Seek(off, 0); err != nil {
		return fmt.Errorf("persist: %w", err)
	}

	// Rebuild the index around the survivors; recency order is preserved.
	l.index = make(map[string]*list.Element, len(keep))
	l.lru.Init()
	for i := len(placements) - 1; i >= 0; i-- { // newest-first, appended toward the LRU end
		p := placements[i]
		l.index[p.e.key] = l.lru.PushBack(&entry{key: p.e.key, seg: newSeq, off: p.off, size: p.e.size})
	}
	l.liveBytes = off
	l.totalBytes = off
	l.stats.Evictions += uint64(evicted)
	l.stats.Compactions++
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// Sync implements Store.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return errClosed
	case l.opts.ReadOnly:
		return errReadOnly
	}
	if err := l.active.f.Sync(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// Stats implements Store.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Entries = len(l.index)
	st.LiveBytes = l.liveBytes
	st.TotalBytes = l.totalBytes
	st.Segments = len(l.segs)
	return st
}

// Close implements Store.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	var err error
	if l.active != nil && !l.opts.ReadOnly {
		err = l.active.f.Sync()
	}
	l.closeAll()
	l.closed = true
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

func (l *Log) closeAll() {
	for _, s := range l.segs {
		s.f.Close()
	}
}
