package store

// Incremental per-arm aggregates over a store. The first Partials()
// call builds the engine.Partials state for the current corpus — from
// the persisted snapshot plus a delta fold when one verifies, by a full
// reduce of every row otherwise — and installs it on the store. From
// then on every Append (and every row a watch refresh tails in) folds
// into it, so /v1/report and the series endpoints answer in O(arms)
// instead of rescanning the corpus per query.
//
// Snapshot file. dir/partials.vagg persists the reduced digests with
// the segment layout they cover: the checksummed envelope of frame.go
// under the magic "VPART1\n\x00", whose payload is the JSON
// {Layout:[{Seg,Size}], Sessions:[engine.PartialSession]}.
//
// Like sidecars, the snapshot is an optimization, never a source of
// truth: it is trusted only if its checksum verifies and its recorded
// layout is an exact prefix of the segments on disk (sealed segments
// byte-identical, the last one no longer than the file is now). Any
// doubt falls back to the full rebuild, so stores written before
// snapshots existed — or whose snapshot was lost — serve unchanged.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"veritas/internal/engine"
)

const (
	partialsMagic = "VPART1\n\x00"
	partialsName  = "partials.vagg"
)

// packSeq encodes a frame's location as a fold sequence number:
// watch epoch, segment, then byte offset — so "later on disk" always
// means "higher seq", and records tailed after a watch reset outrank
// everything folded before it.
func packSeq(epoch uint64, seg int, off int64) uint64 {
	return epoch<<56 | uint64(seg)<<36 | uint64(off)
}

// partialsLayoutSeg is one segment's extent in a snapshot's layout.
type partialsLayoutSeg struct {
	Seg  int
	Size int64
}

// partialsFile is the JSON payload of a partials snapshot.
type partialsFile struct {
	Layout   []partialsLayoutSeg
	Sessions []engine.PartialSession
}

// Partials returns the store's incremental aggregate state, building it
// on first call. Concurrent callers share one build; appends that land
// during the build are folded live and reconciled by sequence number.
func (s *Store) Partials() (*engine.Partials, error) {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if s.partials != nil {
			p, ready := s.partials, s.partialsReady
			s.mu.Unlock()
			<-ready
			// The build may have failed (uninstalled) or a watch reset
			// may have discarded this state; either way retry.
			s.mu.Lock()
			ok := s.partials == p
			s.mu.Unlock()
			if ok {
				return p, nil
			}
			continue
		}

		// We are the builder. Install the (empty) partials and the ready
		// latch under mu, capture the work list, then reduce outside the
		// lock so appends keep flowing: they fold into p directly, and
		// the location-packed sequence numbers make the interleaving
		// converge on the newest record per session.
		p := engine.NewPartials()
		ready := make(chan struct{})
		s.partials = p
		s.partialsReady = ready
		epoch := s.watchEpoch
		s.mergeIndex()
		todo := make([]entry, len(s.entries))
		copy(todo, s.entries)
		s.mu.Unlock()

		coverSeg, coverOff, restored := s.restorePartialsSnapshot(p)
		if restored {
			s.met.partialSnapLoads.Inc()
		} else {
			s.met.partialRebuilds.Inc()
		}
		var err error
		var buf []byte
		for _, e := range todo {
			if e.seg < coverSeg || (e.seg == coverSeg && e.off < coverOff) {
				continue // the snapshot already holds this record's digest
			}
			row, scratch, rerr := s.readRow(e, buf)
			if rerr != nil {
				err = rerr
				break
			}
			buf = scratch
			p.FoldRow(row, packSeq(epoch, e.seg, e.off))
			s.met.partialFolds.Inc()
		}

		s.mu.Lock()
		if err != nil && s.partials == p {
			s.partials, s.partialsReady = nil, nil
		}
		s.mu.Unlock()
		close(ready)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
}

// restorePartialsSnapshot folds a verified snapshot's digests into p
// and returns the (segment, offset) frontier it covers. restored=false
// (frontier 0,0 — cover nothing) on any doubt.
func (s *Store) restorePartialsSnapshot(p *engine.Partials) (coverSeg int, coverOff int64, restored bool) {
	raw, err := os.ReadFile(filepath.Join(s.dir, partialsName))
	if err != nil {
		return 0, 0, false
	}
	payload, ok := openEnvelope(partialsMagic, raw)
	if !ok {
		return 0, 0, false
	}
	var pf partialsFile
	if json.Unmarshal(payload, &pf) != nil {
		return 0, 0, false
	}
	if len(pf.Layout) == 0 {
		return 0, 0, false
	}
	// The recorded layout must be an exact prefix of the store: every
	// recorded segment present, sealed ones byte-identical in size, the
	// last no longer than the file is now. Segments are append-only, so
	// any mismatch means truncation, replacement, or a foreign store —
	// rebuild from frames.
	for i, ls := range pf.Layout {
		if ls.Seg != i {
			return 0, 0, false // segment numbering is dense from 0
		}
		fi, err := os.Stat(filepath.Join(s.dir, segName(ls.Seg)))
		if err != nil {
			return 0, 0, false
		}
		last := i == len(pf.Layout)-1
		if (!last && fi.Size() != ls.Size) || fi.Size() < ls.Size {
			return 0, 0, false
		}
	}
	for _, ps := range pf.Sessions {
		// Neutralize persisted sequence numbers: they were packed under
		// the writing store's epochs and must lose to anything this
		// store folds live.
		ps.Seq = 0
		p.FoldPartial(ps)
	}
	lastL := pf.Layout[len(pf.Layout)-1]
	return lastL.Seg, lastL.Size, true
}

// savePartialsLocked persists the current partial aggregates next to
// the segments. It is a no-op (nil) when the partials were never built
// or the initial build is still in flight. Caller holds mu.
func (s *Store) savePartialsLocked() error {
	if s.partials == nil {
		return nil
	}
	select {
	case <-s.partialsReady:
	default:
		return nil // initial build still running; its digests are incomplete
	}
	nums, err := s.segmentNumbers()
	if err != nil {
		return err
	}
	layout := make([]partialsLayoutSeg, 0, len(nums))
	for _, n := range nums {
		size := int64(0)
		if n == s.activeNum && s.active != nil {
			size = s.activeLen
		} else if fi, err := os.Stat(filepath.Join(s.dir, segName(n))); err == nil {
			size = fi.Size()
		} else {
			return fmt.Errorf("store: partials: %w", err)
		}
		layout = append(layout, partialsLayoutSeg{Seg: n, Size: size})
	}
	pf := partialsFile{Layout: layout, Sessions: s.partials.Snapshot()}
	payload, err := json.Marshal(pf)
	if err != nil {
		return fmt.Errorf("store: partials: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, partialsName), sealEnvelope(partialsMagic, payload)); err != nil {
		return fmt.Errorf("store: partials: %w", err)
	}
	s.met.partialSnapWrites.Inc()
	return nil
}
