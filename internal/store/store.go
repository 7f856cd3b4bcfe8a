// Package store is the persistence layer of the Veritas fleet: a
// segmented, append-only, checksummed record store for per-session
// causal-query results.
//
// On-disk format. A store is a directory of fixed-prefix segment files
// ("seg-00000.vseg", "seg-00001.vseg", …), each beginning with an
// 8-byte magic and holding a sequence of framed records:
//
//	u32  key length
//	u32  payload length
//	u32  CRC-32 (IEEE) over key ‖ payload
//	key      (the session ID, UTF-8)
//	payload  (the engine.SessionRow: a format tag, then fixed-width
//	         little-endian fields; stores written before the tag hold
//	         the row as JSON and still open)
//
// frame.go holds the one encoder and one decoder of each byte format —
// this frame, the row payload, and the checksummed envelope of the
// metadata files — and bounds every allocation by the bytes the file
// actually has; the rest of the package never parses a header.
//
// Appends go to the newest segment and rotate to a fresh one past
// Options.SegmentBytes, so a long campaign never rewrites old data and
// a reader can back up or ship finished segments while the campaign
// runs.
//
// Crash safety. A crash mid-append leaves a torn frame only at the tail
// of the newest segment; Open detects it (short frame or CRC mismatch),
// truncates the segment back to the last intact record, and reports the
// dropped bytes via Recovered. Torn frames anywhere else are corruption
// and fail Open and OpenWatch alike: one indexer (indexSegment) decides
// what every segment holds, in every mode. Records themselves are
// immutable once written; a re-run session is appended again and the
// newer record wins.
//
// Memory. The resident index holds (key, scenario, index, location)
// per record — tens of bytes — never payloads, so a store of millions
// of sessions serves point lookups in O(log n) by binary search over
// the sorted key index while the rows stay on disk.
//
// Reopen cost. Segments carry sidecar indexes (see sidecar.go) so Open
// rebuilds the resident index in O(segments) instead of re-reading
// every frame: one read of each binary sidecar, a few allocations per
// segment however many rows it holds, one spot-checked final frame, and
// one stable sort of the entries merged without a map. A missing,
// stale, corrupt or JSON-era sidecar falls back to the full walk of that
// segment, so pre-sidecar stores open unchanged. Sidecars never leave
// the machine that wrote them.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"veritas/internal/engine"
	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

const (
	segMagic  = "VSTORE1\n"
	segPrefix = "seg-"
	segSuffix = ".vseg"

	// DefaultSegmentBytes is the rotation threshold when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 1 << 20

	// maxKeptFrame caps the frame buffer Append keeps between calls.
	maxKeptFrame = 1 << 20
)

// ErrReadOnly is returned by Append on a store opened with ReadOnly.
var ErrReadOnly = errors.New("store: opened read-only")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Options configures a store.
type Options struct {
	// SegmentBytes caps a segment's size before appends rotate to a
	// fresh file (default DefaultSegmentBytes).
	SegmentBytes int64
	// ReadOnly opens the store for queries only: Append fails, and a
	// torn tail is skipped in memory instead of truncated on disk (the
	// serving layer must not mutate a store a campaign may still own).
	ReadOnly bool
	// Telemetry, when set, receives the store's operational metrics
	// (names veritas_store_*): append/fsync counters and latency
	// histograms, segment rotations, recovery events, sidecar loads
	// versus scans, plus session-count and generation gauges evaluated
	// at snapshot time.
	Telemetry *telemetry.Registry
	// Tracer, when set, records tail-sampled traces of store operations:
	// appends (with a rotate child span when one triggers), fsyncs, and
	// folds. Like Telemetry, a nil tracer means tracing off; nothing
	// recorded feeds back into what is stored.
	Tracer *tracing.Tracer
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return DefaultSegmentBytes
}

// entry is one record's slot in the resident index.
type entry struct {
	key      string
	scenario string
	index    int   // engine corpus index, for listings
	seg      int   // segment number
	off      int64 // frame start offset within the segment
}

// Store is an open store directory. All methods are safe for concurrent
// use; Append is serialized internally, so a Store works directly as an
// engine.Sink shared by every fleet worker.
type Store struct {
	dir string
	opt Options

	mu            sync.Mutex
	entries       []entry // sorted by key, deduplicated: latest record wins
	staged        []entry // appended since the last index merge, in append order
	readers       map[int]segReader
	active        *os.File
	lock          *os.File // writer lock on dir/LOCK, nil when read-only
	activeNum     int      // the newest segment, the only one that can still grow; appends go to it
	activeLen     int64
	activeEntries []entry // the active segment's frames, in append order
	frame         []byte  // Append's frame buffer, reused under mu
	recovered     int64
	gen           uint64 // bumped on every append, including same-key overwrites
	sidecarLoads  int    // segments indexed from their sidecar (by Open or the watch tail)
	sidecarScans  int    // segments that needed a frame walk from offset 0 instead
	closed        bool
	met           storeMetrics

	// Incremental aggregation state (see partials.go). partials is nil
	// until the first Partials() call installs it; partialsReady closes
	// when the initial build completes.
	partials      *engine.Partials
	partialsReady chan struct{}

	// Watch mode (see watch.go). watchPos tracks the scanned byte
	// position per segment; watchEpoch bumps on every reset so fold
	// sequence numbers from before a reset never outrank those after.
	watch      bool
	watchPos   map[int]int64
	watchEpoch uint64
}

func segName(n int) string { return fmt.Sprintf("%s%05d%s", segPrefix, n, segSuffix) }

// Open opens (or, unless ReadOnly, creates) a store directory,
// recovering from a torn tail segment if a previous writer crashed.
func Open(dir string, opt Options) (*Store, error) {
	if opt.ReadOnly {
		// Fail fast on a mistyped path: a read-only open of nothing
		// would otherwise serve a valid-looking empty corpus.
		if fi, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		} else if !fi.IsDir() {
			return nil, fmt.Errorf("store: %s is not a directory", dir)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return newStore(dir, opt, (*Store).load)
}

// newStore is the one constructor behind Open and OpenWatch: it builds
// an empty store over dir, lets fill index it, and registers the store's
// gauges once that succeeded. A failed fill leaves no file or lock held.
func newStore(dir string, opt Options, fill func(*Store) error) (*Store, error) {
	s := &Store{dir: dir, opt: opt, readers: make(map[int]segReader), met: newStoreMetrics(opt.Telemetry)}
	if err := fill(s); err != nil {
		s.closeFiles()
		return nil, err
	}
	if reg := opt.Telemetry; reg != nil {
		// Evaluated at snapshot time, outside the registry lock, so
		// taking s.mu inside is safe. Both keep working after Close.
		reg.RegisterFunc("veritas_store_sessions", telemetry.GaugeFunc, func() float64 { return float64(s.Len()) })
		reg.RegisterFunc("veritas_store_generation", telemetry.GaugeFunc, func() float64 { return float64(s.Generation()) })
	}
	return s, nil
}

// load is Open's fill: it indexes every segment, counts the newest
// one's short tail as recovered and, unless read-only, cuts it away and
// makes that segment the one appends go to.
func (s *Store) load() error {
	if !s.opt.ReadOnly {
		// Single-writer discipline: two campaigns appending to one
		// store would track offsets independently and corrupt each
		// other's view. The flock is released automatically if the
		// process dies, so crash-resume never needs manual cleanup.
		if err := s.acquireLock(); err != nil {
			return err
		}
	}
	nums, err := s.segmentNumbers()
	if err != nil {
		return err
	}
	if len(nums) == 0 {
		if s.opt.ReadOnly {
			return fmt.Errorf("store: %s holds no segments", s.dir)
		}
		s.met.segments.Set(1)
		return s.newSegment(0, os.O_EXCL)
	}
	s.activeNum = nums[len(nums)-1]
	var entries []entry
	var end, size int64
	for _, n := range nums {
		if entries, end, size, err = s.indexSegment(n, 0); err != nil {
			return err
		}
		s.staged = append(s.staged, entries...)
	}
	s.mergeIndex()
	s.met.segments.Set(float64(len(nums)))
	// entries, end and size are the newest segment's now: the one that
	// may end short, where a crash tore an append.
	if s.recovered = size - end; s.recovered > 0 {
		s.met.recoveries.Inc()
		s.met.recoveredB.Add(uint64(s.recovered))
	}
	if s.opt.ReadOnly {
		return nil
	}
	// Keep the newest segment's frame list so Close (and the next
	// rotation) can write a complete sidecar for it.
	s.activeEntries = entries
	return s.openActive(end)
}

// SidecarStats reports how the resident index was built: segments
// restored from sidecar indexes versus segments that needed a frame
// walk from offset 0 (no sidecar, a stale or corrupt one, or a torn
// tail). A watch store counts each segment the first time it sees it.
func (s *Store) SidecarStats() (fromSidecar, scanned int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sidecarLoads, s.sidecarScans
}

// Create opens a fresh store, failing if dir already holds segments.
func Create(dir string, opt Options) (*Store, error) {
	if opt.ReadOnly {
		return nil, errors.New("store: Create is incompatible with ReadOnly")
	}
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if len(names) > 0 {
		return nil, fmt.Errorf("store: %s already holds %d segment(s)", dir, len(names))
	}
	return Open(dir, opt)
}

func (s *Store) segmentNumbers() ([]int, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	nums := make([]int, 0, len(names))
	for _, name := range names {
		base := filepath.Base(name)
		var n int
		if _, err := fmt.Sscanf(base, segPrefix+"%d"+segSuffix, &n); err != nil {
			return nil, fmt.Errorf("store: unrecognized segment file %s", base)
		}
		nums = append(nums, n)
	}
	sort.Ints(nums)
	return nums, nil
}

// indexSegment indexes segment n from offset off. It is the one reader
// of what a segment holds, behind Open (writable or read-only) and the
// watch tail. From offset 0 a sidecar that verifies (see sidecar.go)
// stands in for the frames and covers the whole segment; otherwise the
// header is checked and the intact frames are walked. It returns the
// entries in frame order, end — the first byte no intact frame accounts
// for, 0 when the header is missing — and the segment's size.
//
// The rule for a segment that ends short (end < size, or no header) is
// the same everywhere: only the newest segment may, because a crash tore
// its tail (Open) or a write is still in flight (the watch tail), and
// the caller decides which. A sealed segment that does not index to its
// end is corrupt, an error in every mode. A frame that passes its CRC
// and does not parse is an error anywhere: it is a row format this build
// does not know, and truncating it away (or indexing it under no
// scenario) would lose or misfile committed rows.
//
// A writable store heals a sealed segment that needed the walk by
// rewriting its sidecar, so the next Open skips the walk again. Caller
// holds mu, or owns the store outright as Open does.
func (s *Store) indexSegment(n int, off int64) (entries []entry, end, size int64, err error) {
	r, err := s.readerLocked(n)
	if err != nil {
		return nil, 0, 0, err
	}
	if size, err = r.limit(); err != nil {
		return nil, 0, 0, fmt.Errorf("store: %w", err)
	}
	from := off
	if off == 0 {
		if entries, ok := s.tryLoadSidecar(n, r.f, size); ok {
			s.sidecarLoads++
			s.met.scLoads.Inc()
			return entries, size, size, nil
		}
		s.sidecarScans++
		s.met.scScans.Inc()
		var magic [len(segMagic)]byte
		if _, err := r.f.ReadAt(magic[:], 0); err == nil && string(magic[:]) == segMagic {
			off = int64(len(segMagic))
		}
	}
	end = off
	if off > 0 {
		end, err = walkFrames(r.f, off, size, func(at int64, key, payload []byte) error {
			scen, idx, err := peekRow(payload)
			if err != nil {
				return fmt.Errorf("store: %s@%d: %w", segName(n), at, err)
			}
			entries = append(entries, entry{key: string(key), scenario: scen, index: idx, seg: n, off: at})
			return nil
		})
		if err != nil {
			return nil, 0, 0, err
		}
	}
	if n < s.activeNum {
		if end < size || end == 0 {
			return nil, 0, 0, fmt.Errorf("store: %s: corrupt frame at offset %d (%d bytes follow); only the newest segment may be torn",
				filepath.Join(s.dir, segName(n)), end, size-end)
		}
		if from == 0 && !s.opt.ReadOnly {
			// Best-effort: a failed heal just means another walk next time.
			_ = s.writeSidecar(n, size, entries)
		}
	}
	return entries, end, size, nil
}

// newSegment creates segment num with its header and makes it the one
// appends go to. flag is os.O_EXCL for a fresh segment, or os.O_TRUNC to
// restart one whose header never became durable.
func (s *Store) newSegment(num, flag int) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(num)), os.O_CREATE|os.O_WRONLY|flag, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.active = f
	s.activeNum = num
	s.activeLen = int64(len(segMagic))
	s.activeEntries = nil
	return nil
}

// openActive makes the newest segment the one appends go to, first
// cutting it back to end, where its intact frames stop. A segment whose
// header never became durable is restarted instead, or the records
// appended next would sit behind no header and be dropped wholesale by
// the following Open.
func (s *Store) openActive(end int64) error {
	if end < int64(len(segMagic)) {
		return s.newSegment(s.activeNum, os.O_TRUNC)
	}
	path := filepath.Join(s.dir, segName(s.activeNum))
	if s.recovered > 0 {
		if err := os.Truncate(path, end); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.active, s.activeLen = f, end
	return nil
}

// Append persists one session row; the row's ID is its key. A later
// append with the same key supersedes the earlier record.
func (s *Store) Append(row engine.SessionRow) (err error) {
	if row.ID == "" {
		return errors.New("store: row has empty ID")
	}
	if len(row.ID) > maxKeyLen {
		return fmt.Errorf("store: key %q exceeds %d bytes", row.ID[:32]+"…", maxKeyLen)
	}

	var t0 time.Time
	if s.met.appendSec != nil {
		t0 = time.Now()
	}
	tb := s.opt.Tracer.Start("append", row.ID)
	defer func() { tb.Finish(err) }()
	s.mu.Lock()
	defer s.mu.Unlock()
	frame, err := appendRowFrame(s.frame[:0], row)
	if s.frame = frame; cap(frame) > maxKeptFrame {
		s.frame = nil // one outsized row does not pin its buffer for the store's life
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tb.SetAttr("bytes", len(frame))
	switch {
	case s.closed:
		return ErrClosed
	case s.opt.ReadOnly:
		return ErrReadOnly
	}
	if s.activeLen+int64(len(frame)) > s.opt.segmentBytes() && s.activeLen > int64(len(segMagic)) {
		rotT0 := tb.Now()
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := s.active.Close(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		// Seal the segment with its sidecar so the next Open skips the
		// frame scan. Best-effort: the frames are the source of truth.
		_ = s.writeSidecar(s.activeNum, s.activeLen, s.activeEntries)
		if err := s.newSegment(s.activeNum+1, os.O_EXCL); err != nil {
			return err
		}
		s.met.fsyncs.Inc()
		s.met.rotations.Inc()
		s.met.segments.Add(1)
		tb.Span("rotate", rotT0, map[string]any{"segment": s.activeNum})
	}
	off := s.activeLen
	if _, err := s.active.Write(frame); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.activeLen += int64(len(frame))
	s.gen++
	s.met.appends.Inc()
	s.met.appendBytes.Add(uint64(len(frame)))
	s.met.appendSec.Since(t0)
	e := entry{
		key: row.ID, scenario: row.Scenario, index: row.Index,
		seg: s.activeNum, off: off,
	}
	s.staged = append(s.staged, e)
	s.activeEntries = append(s.activeEntries, e)
	if s.partials != nil {
		// Fold the appended row into the live partial aggregates. The
		// sequence number is the frame's location, so a concurrent
		// initial build re-reading an older record for the same session
		// can never clobber this newer one.
		s.partials.FoldRow(row, packSeq(s.watchEpoch, s.activeNum, off))
		s.met.partialFolds.Inc()
	}
	return nil
}

// Generation returns a counter that increases on every append — unlike
// Len, it also moves when an existing session is overwritten, which is
// what serving-layer caches must key on.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Put adapts the store to engine.Sink: each completed session result is
// reduced to its row and appended.
func (s *Store) Put(r engine.SessionResult) error { return s.Append(r.Row()) }

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.active == nil {
		return nil
	}
	var t0 time.Time
	if s.met.fsyncSec != nil {
		t0 = time.Now()
	}
	tb := s.opt.Tracer.Start("fsync", segName(s.activeNum))
	defer func() { tb.Finish(err) }()
	if err := s.active.Sync(); err != nil {
		return err
	}
	s.met.fsyncs.Inc()
	s.met.fsyncSec.Since(t0)
	return nil
}

// Close syncs and releases every file handle. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if !s.opt.ReadOnly {
		// Persist the partial aggregates so the next open (or a watch
		// reader) restores them instead of re-reducing every row.
		// Best-effort: the frames are the source of truth.
		_ = s.savePartialsLocked()
	}
	s.closed = true
	var first error
	if s.active != nil {
		if err := s.active.Sync(); err != nil {
			first = err
		} else {
			s.met.fsyncs.Inc()
		}
		// A clean close seals the active segment too: with every
		// segment carrying a current sidecar, the next Open rebuilds
		// the whole index without scanning a single frame.
		_ = s.writeSidecar(s.activeNum, s.activeLen, s.activeEntries)
	}
	if err := s.closeFiles(); err != nil && first == nil {
		first = err
	}
	return first
}

// closeFiles releases every handle the store holds: the active segment,
// the shared readers and the writer lock.
func (s *Store) closeFiles() error {
	var first error
	if s.active != nil {
		first = s.active.Close()
		s.active = nil
	}
	for _, r := range s.readers {
		if err := r.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.readers = nil
	s.releaseLock()
	return first
}

// writeFileAtomic writes data to path through a same-directory temp
// file, fsync and rename, so a crash leaves either the old file or the
// complete new one, never a torn mix. Shared by every metadata write
// (campaign.json, shard.json, sidecars).
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename itself lives in the directory entry: without a
	// directory fsync a power loss can forget the installation even
	// though the file's bytes were synced.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		// Best-effort: some filesystems refuse directory fsync; the
		// rename is then only as durable as the mount makes it.
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Recovered returns the number of torn-tail bytes dropped during Open.
func (s *Store) Recovered() int64 { return s.recovered }

// mergeIndex folds staged entries into the sorted index, the later
// record winning wherever two share a key: the staged batch is
// stable-sorted by key (append order survives within a key), cut to its
// last record per key and merged into the index from the back, in place.
// O(n + k log k) for an index of n and a batch of k. Caller holds mu.
func (s *Store) mergeIndex() {
	if len(s.staged) == 0 {
		return
	}
	batch := s.staged
	slices.SortStableFunc(batch, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	k := 0
	for i := range batch {
		if i+1 < len(batch) && batch[i+1].key == batch[i].key {
			continue // a later record supersedes this one
		}
		batch[k] = batch[i]
		k++
	}
	batch = batch[:k]
	if len(s.entries) == 0 {
		s.entries, s.staged = batch, s.entries[:0]
		return
	}
	i, j := len(s.entries)-1, k-1
	merged := slices.Grow(s.entries, k)[:len(s.entries)+k]
	w := len(merged) - 1
	for ; j >= 0; w-- {
		c := -1
		if i >= 0 {
			c = strings.Compare(merged[i].key, batch[j].key)
		}
		switch {
		case c > 0:
			merged[w] = merged[i]
			i--
		case c == 0: // the staged record wins
			merged[w] = batch[j]
			i--
			j--
		default:
			merged[w] = batch[j]
			j--
		}
	}
	// merged[:i+1] never moved; one slot per superseded key sits between
	// it and the merged tail at merged[w+1:].
	n := i + 1 + copy(merged[i+1:], merged[w+1:])
	clear(merged[n:])
	s.entries, s.staged = merged[:n], batch[:0]
}

// snapshotIndex returns the merged, key-sorted index. The slice must
// not be mutated.
func (s *Store) snapshotIndex() []entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeIndex()
	out := make([]entry, len(s.entries))
	copy(out, s.entries)
	return out
}

// Len returns the number of distinct sessions stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeIndex()
	return len(s.entries)
}

// lookup returns the index entry of the record currently backing key.
func (s *Store) lookup(key string) (entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeIndex()
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].key >= key })
	if i >= len(s.entries) || s.entries[i].key != key {
		return entry{}, false
	}
	return s.entries[i], true
}

// Has reports whether a session with the given ID is stored.
func (s *Store) Has(key string) bool {
	_, ok := s.lookup(key)
	return ok
}

// Keys returns every stored session ID in sorted order — the resume
// skip set `cmd/fleet -resume` feeds back into the engine.
func (s *Store) Keys() []string {
	idx := s.snapshotIndex()
	out := make([]string, len(idx))
	for i, e := range idx {
		out[i] = e.key
	}
	return out
}

// SessionInfo is one index row of a listing: enough to enumerate a
// corpus without touching payloads.
type SessionInfo struct {
	ID       string
	Index    int
	Scenario string
}

// Sessions lists the stored sessions (sorted by ID), optionally
// restricted to one scenario.
func (s *Store) Sessions(scenario string) []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeIndex()
	var out []SessionInfo
	for _, e := range s.entries {
		if scenario != "" && e.scenario != scenario {
			continue
		}
		out = append(out, SessionInfo{ID: e.key, Index: e.index, Scenario: e.scenario})
	}
	return out
}

// Scenarios returns the distinct scenario labels stored with their
// session counts, sorted by label.
func (s *Store) Scenarios() []ScenarioInfo {
	counts := make(map[string]int)
	s.mu.Lock()
	s.mergeIndex()
	for _, e := range s.entries {
		counts[e.scenario]++
	}
	s.mu.Unlock()
	out := make([]ScenarioInfo, 0, len(counts))
	for name, n := range counts {
		out = append(out, ScenarioInfo{Scenario: name, Sessions: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scenario < out[j].Scenario })
	return out
}

// ScenarioInfo is one scenario's entry in a listing.
type ScenarioInfo struct {
	Scenario string
	Sessions int
}

// Version returns an opaque identifier of the record currently backing
// key — it changes exactly when the session is overwritten, which is
// what per-session read caches key on. ok is false for unknown keys.
func (s *Store) Version(key string) (string, bool) {
	e, ok := s.lookup(key)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%d:%d", e.seg, e.off), true
}

// Get returns the stored row for a session ID.
func (s *Store) Get(key string) (engine.SessionRow, bool, error) {
	e, ok := s.lookup(key)
	if !ok {
		return engine.SessionRow{}, false, nil
	}
	row, _, err := s.readRow(e, nil)
	if err != nil {
		return engine.SessionRow{}, false, err
	}
	return row, true, nil
}

// segReader is a shared read handle on one segment. size is the
// segment's length if it was already sealed when the handle opened —
// sealed segments never grow, so one fstat serves every read — and -1
// for the newest segment, which is measured per read.
type segReader struct {
	f    *os.File
	size int64
}

// limit returns the offset at which the segment's trustworthy bytes end.
func (r segReader) limit() (int64, error) {
	if r.size >= 0 {
		return r.size, nil
	}
	fi, err := r.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// reader returns a shared read handle for a segment.
func (s *Store) reader(seg int) (segReader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readerLocked(seg)
}

// readerLocked is reader for callers already holding mu (the watch
// refresh tails segments under the store lock).
func (s *Store) readerLocked(seg int) (segReader, error) {
	if s.closed {
		return segReader{}, ErrClosed
	}
	if r, ok := s.readers[seg]; ok {
		return r, nil
	}
	f, err := os.Open(filepath.Join(s.dir, segName(seg)))
	if err != nil {
		return segReader{}, fmt.Errorf("store: %w", err)
	}
	r := segReader{f: f, size: -1}
	if seg < s.activeNum {
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return segReader{}, fmt.Errorf("store: %w", err)
		}
		r.size = fi.Size()
	}
	s.readers[seg] = r
	return r, nil
}

// readRow reads, verifies and decodes the record e points at. The frame
// is read into buf, grown when it must be and returned as scratch for
// the next call: a pass over many rows allocates one frame buffer, and
// the returned row never aliases it.
func (s *Store) readRow(e entry, buf []byte) (row engine.SessionRow, scratch []byte, err error) {
	r, err := s.reader(e.seg)
	if err != nil {
		return engine.SessionRow{}, buf, err
	}
	payload, scratch, err := s.readPayload(r, e, buf)
	if err != nil {
		return engine.SessionRow{}, scratch, err
	}
	row, err = decodeRow(payload)
	if err != nil {
		return engine.SessionRow{}, scratch, fmt.Errorf("store: %s@%d: %w", segName(e.seg), e.off, err)
	}
	return row, scratch, nil
}

// readPayload reads and verifies the frame e points at through r and
// returns its row payload, which aliases scratch. It takes no locks
// (ReadAt is position-independent), so it serves both the unlocked scan
// paths and the watch refresh under mu.
func (s *Store) readPayload(r segReader, e entry, buf []byte) (payload, scratch []byte, err error) {
	s.met.reads.Inc()
	limit, err := r.limit()
	if err == nil {
		_, payload, buf, err = readFrameAt(r.f, e.off, limit, buf)
	}
	if err != nil {
		return nil, buf, fmt.Errorf("store: %s@%d: %w", segName(e.seg), e.off, err)
	}
	return payload, buf, nil
}

// Scan streams every stored row (latest per key, sorted by key) through
// fn, reading one row at a time — the bounded-memory iteration path.
// fn errors abort the scan.
func (s *Store) Scan(fn func(engine.SessionRow) error) error {
	var buf []byte
	for _, e := range s.snapshotIndex() {
		row, scratch, err := s.readRow(e, buf)
		if err != nil {
			return err
		}
		buf = scratch
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// merge writes the merge of srcs into the fresh store dst — the
// compaction pass under Fold. Sessions are deduplicated by ID,
// last-write-wins in srcs order: when two sources hold the same key,
// the source listed later wins, so equal srcs slices give
// byte-identical stores. Superseded and torn records are dropped, and
// the surviving records are written in sorted key order, one at a time,
// so compaction memory is bounded by a single row. It returns the
// number of sessions written.
func merge(dst string, opt Options, srcs []string) (int, error) {
	opened := make([]*Store, 0, len(srcs))
	defer func() {
		for _, st := range opened {
			st.Close()
		}
	}()
	winner := make(map[string]int) // key -> index into opened
	for i, dir := range srcs {
		st, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			return 0, fmt.Errorf("store: merge source %s: %w", dir, err)
		}
		opened = append(opened, st)
		for _, k := range st.Keys() {
			winner[k] = i
		}
	}
	keys := make([]string, 0, len(winner))
	for k := range winner {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	out, err := Create(dst, opt)
	if err != nil {
		return 0, err
	}
	defer out.Close()
	var buf []byte
	for _, k := range keys {
		src := opened[winner[k]]
		e, ok := src.lookup(k)
		if !ok {
			return 0, fmt.Errorf("store: merge lost key %q", k)
		}
		row, scratch, err := src.readRow(e, buf)
		if err != nil {
			return 0, err
		}
		buf = scratch
		if err := out.Append(row); err != nil {
			return 0, err
		}
	}
	if err := out.Sync(); err != nil {
		return 0, err
	}
	return len(keys), nil
}
