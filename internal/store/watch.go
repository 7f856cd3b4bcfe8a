package store

// Watch mode: tail a store another process is still writing.
//
// A read-only Open wants a finished corpus — it indexes once, treats a
// torn tail as recovered loss, and never looks at the directory again.
// OpenWatch instead keeps per-segment index positions and re-checks the
// directory on every Refresh: new bytes in the newest segment are
// framed and folded in, a segment seen for the first time is indexed
// from offset 0 (through its sidecar when one verifies), and a brand-new
// segment starts a new tail. Both read segments through the one indexer
// (indexSegment) and so follow its one rule: an incomplete frame or a
// missing header at the end of the newest segment is a write in flight,
// so the refresh stops before it and the next refresh retries from the
// same position; a sealed segment that does not index to its end is
// corrupt, and every refresh returns that error, as Open does.
//
// The one thing a watcher cannot incrementally survive is the store
// moving backwards — a segment shrinking or vanishing means the
// directory was truncated, compacted, or replaced wholesale. Refresh
// then resets: it drops the index, readers, index positions, and
// partial aggregates, bumps the watch epoch (so stale folds lose by
// sequence number) and the generation (so every ETag built on it
// changes), and re-indexes from scratch.
//
// Appends, truncation, and locking are all absent: a watch store is
// ReadOnly, takes no writer lock, and never mutates the directory —
// exactly what the serving layer needs to sit next to a live campaign.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	return newStore(dir, opt, func(s *Store) error {
		s.watch, s.watchPos = true, make(map[int]int64)
		_, err := s.Refresh()
		return err
	})
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

// tailSegmentLocked folds segment n's frames from the last indexed
// position on. The newest segment ending short is a write in flight:
// the position stops before it and the next refresh retries from there.
// Caller holds mu.
func (s *Store) tailSegmentLocked(n int, size int64) (added int, err error) {
	pos := s.watchPos[n]
	if pos >= size {
		return 0, nil
	}
	entries, end, _, err := s.indexSegment(n, pos)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if err := s.ingestWatchEntry(e); err != nil {
			s.watchPos[n] = e.off // retry from the row that failed
			return added, err
		}
		added++
	}
	s.watchPos[n] = end
	return added, nil
}

// ingestWatchEntry stages one tailed entry and, when the partials are
// built, reads its row back and folds it into them. Caller holds mu.
func (s *Store) ingestWatchEntry(e entry) error {
	s.staged = append(s.staged, e)
	s.gen++
	if s.partials == nil {
		return nil
	}
	r, err := s.readerLocked(e.seg)
	if err != nil {
		return err
	}
	payload, _, err := s.readPayload(r, e, nil)
	if err != nil {
		return err
	}
	row, err := decodeRow(payload)
	if err != nil {
		return fmt.Errorf("store: %s@%d: %w", segName(e.seg), e.off, err)
	}
	s.partials.FoldRow(row, packSeq(s.watchEpoch, e.seg, e.off))
	s.met.partialFolds.Inc()
	return nil
}
