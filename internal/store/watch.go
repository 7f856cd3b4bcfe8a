package store

// Watch mode: tail a store another process is still writing.
//
// A read-only Open wants a finished corpus — it scans once, treats a
// torn tail as recovered loss, and never looks at the directory again.
// OpenWatch instead keeps per-segment scan positions and re-checks the
// directory on every Refresh: new bytes in the newest segment are
// framed and folded in, a freshly sealed segment is picked up through
// its sidecar without a re-scan, and a brand-new segment starts a new
// tail. An incomplete frame at a tail is never an error here — it is a
// write in flight, so the refresh stops before it and the next refresh
// retries from the same position.
//
// The one thing a watcher cannot incrementally survive is the store
// moving backwards — a segment shrinking or vanishing means the
// directory was truncated, compacted, or replaced wholesale. Refresh
// then resets: it drops the index, readers, scan positions, and partial
// aggregates, bumps the watch epoch (so stale folds lose by sequence
// number) and the generation (so every ETag built on it changes), and
// rescans from scratch.
//
// Appends, truncation, and locking are all absent: a watch store is
// ReadOnly, takes no writer lock, and never mutates the directory —
// exactly what the serving layer needs to sit next to a live campaign.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"veritas/internal/telemetry"
)

// OpenWatch opens dir for tailing: read-only, tolerant of the directory
// not existing yet (the campaign may not have created it), and
// refreshable. The initial Refresh runs before OpenWatch returns, so a
// store that already holds rows serves them immediately.
func OpenWatch(dir string, opt Options) (*Store, error) {
	opt.ReadOnly = true
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("store: %s is not a directory", dir)
	}
	s := &Store{
		dir:      dir,
		opt:      opt,
		readers:  make(map[int]segReader),
		watch:    true,
		watchPos: make(map[int]int64),
		met:      newStoreMetrics(opt.Telemetry),
	}
	if _, err := s.Refresh(); err != nil {
		return nil, err
	}
	if reg := opt.Telemetry; reg != nil {
		reg.RegisterFunc("veritas_store_sessions", telemetry.GaugeFunc, func() float64 { return float64(s.Len()) })
		reg.RegisterFunc("veritas_store_generation", telemetry.GaugeFunc, func() float64 { return float64(s.Generation()) })
	}
	return s, nil
}

// IsWatch reports whether the store was opened with OpenWatch.
func (s *Store) IsWatch() bool { return s.watch }

// Refresh re-checks the directory for rows appended since the last
// refresh (or open), folding them into the index — and into the partial
// aggregates, when built. It returns the number of rows picked up.
// Generation moves by exactly one per new row, so ETags keyed on it
// change iff a refresh found data; a reset also bumps it.
func (s *Store) Refresh() (added int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.watch {
		return 0, errors.New("store: Refresh needs a store opened with OpenWatch")
	}
	if s.closed {
		return 0, ErrClosed
	}
	s.met.watchRefreshes.Inc()
	nums, err := s.segmentNumbers()
	if err != nil {
		return 0, err
	}
	present := make(map[int]int64, len(nums)) // segment -> current size
	for _, n := range nums {
		fi, err := os.Stat(filepath.Join(s.dir, segName(n)))
		if err != nil {
			// Vanished between glob and stat — mid-replacement. Skip this
			// round; the next refresh sees the settled state.
			return 0, nil
		}
		present[n] = fi.Size()
	}
	for n, pos := range s.watchPos {
		if size, ok := present[n]; !ok || size < pos {
			s.watchResetLocked()
			break
		}
	}
	if len(nums) > 0 {
		s.activeNum = nums[len(nums)-1]
	}
	for _, n := range nums {
		a, err := s.tailSegmentLocked(n, present[n])
		added += a
		if err != nil {
			return added, err
		}
	}
	s.met.watchRows.Add(uint64(added))
	return added, nil
}

// watchResetLocked discards everything derived from the directory: the
// next tail pass rebuilds from scratch. Caller holds mu.
func (s *Store) watchResetLocked() {
	s.entries = nil
	s.staged = nil
	s.watchPos = make(map[int]int64)
	for _, r := range s.readers {
		r.f.Close()
	}
	s.readers = make(map[int]segReader)
	// Drop the partials rather than rewinding them; the next Partials()
	// call rebuilds. The epoch bump makes any in-flight build of the old
	// state lose every sequence-number race against post-reset folds.
	s.partials, s.partialsReady = nil, nil
	s.watchEpoch++
	s.gen++ // the corpus changed shape: every generation-keyed cache must miss
	s.met.watchResets.Inc()
}

// tailSegmentLocked folds segment n's frames from the last scanned
// position up to size. Caller holds mu.
func (s *Store) tailSegmentLocked(n int, size int64) (added int, err error) {
	pos := s.watchPos[n]
	if pos >= size {
		return 0, nil
	}
	if pos == 0 && n < s.activeNum {
		// First sight of an already-sealed segment (the writer rotated
		// past it, or the watcher started on an existing store): its
		// sidecar replays the frame list without a scan.
		if entries, ok := s.tryLoadSidecar(n); ok {
			s.sidecarLoads++
			s.met.scLoads.Inc()
			for _, e := range entries {
				if err := s.ingestWatchEntry(e, nil); err != nil {
					return added, err
				}
				added++
			}
			s.watchPos[n] = size
			return added, nil
		}
		s.sidecarScans++
		s.met.scScans.Inc()
	}
	r, err := s.readerLocked(n)
	if err != nil {
		return 0, nil // unreadable right now; retry next refresh
	}
	if pos == 0 {
		magic := make([]byte, len(segMagic))
		if _, err := r.f.ReadAt(magic, 0); err != nil || string(magic) != segMagic {
			return 0, nil // header write in flight
		}
		pos = int64(len(segMagic))
	}
	// A torn or in-flight frame is where the walk stops; the next
	// refresh retries from there. A frame that verifies and does not
	// parse is an error, now and on every later refresh: it is a row
	// format this build does not know, not a write in flight.
	s.watchPos[n], err = walkFrames(r.f, pos, size, func(off int64, key, payload []byte) error {
		scen, idx, err := peekRow(payload)
		if err != nil {
			return fmt.Errorf("store: %s@%d: %w", segName(n), off, err)
		}
		e := entry{key: string(key), scenario: scen, index: idx, seg: n, off: off}
		if err := s.ingestWatchEntry(e, payload); err != nil {
			return err
		}
		added++
		return nil
	})
	return added, err
}

// ingestWatchEntry stages one tailed entry and, when the partials are
// built, folds its row into them. payload is the entry's verified row
// payload, or nil when a sidecar supplied the entry without its frame
// being read — the row is then read back only if the fold needs it.
// Caller holds mu.
func (s *Store) ingestWatchEntry(e entry, payload []byte) error {
	s.staged = append(s.staged, e)
	s.gen++
	if s.partials == nil {
		return nil
	}
	if payload == nil {
		r, err := s.readerLocked(e.seg)
		if err != nil {
			return err
		}
		if payload, _, err = s.readPayload(r, e, nil); err != nil {
			return err
		}
	}
	row, err := decodeRow(payload)
	if err != nil {
		return fmt.Errorf("store: %s@%d: %w", segName(e.seg), e.off, err)
	}
	s.partials.FoldRow(row, packSeq(s.watchEpoch, e.seg, e.off))
	s.met.partialFolds.Inc()
	return nil
}
