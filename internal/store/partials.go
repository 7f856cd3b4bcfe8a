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
// {Layout:[{Seg,Size}], Sessions:[engine.PartialSession]}. Save and
// restore stream it one digest at a time (encodePartials,
// decodePartials), straight from and into the engine's slabs, so
// neither holds a second copy of every digest.
//
// Like sidecars, the snapshot is an optimization, never a source of
// truth: it is trusted only if its checksum verifies and its recorded
// layout is an exact prefix of the segments on disk (sealed segments
// byte-identical, the last one no longer than the file is now). Any
// doubt falls back to the full rebuild, so stores written before
// snapshots existed — or whose snapshot was lost — serve unchanged.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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

// restorePartialsSnapshot merges a verified snapshot's digests into p
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
	layout, q, ok := decodePartials(payload, s.layoutIsPrefix)
	if !ok {
		return 0, 0, false
	}
	// As of sequence 0: the persisted sequence numbers were packed under
	// the writing store's epochs, and anything this store has folded
	// live since the build began must win over them.
	p.Merge(q, 0)
	lastL := layout[len(layout)-1]
	return lastL.Seg, lastL.Size, true
}

// layoutIsPrefix reports whether a snapshot's recorded layout is an
// exact prefix of the store: every recorded segment present, sealed
// ones byte-identical in size, the last no longer than the file is now.
// Segments are append-only, so any mismatch means truncation,
// replacement, or a foreign store — rebuild from frames.
func (s *Store) layoutIsPrefix(layout []partialsLayoutSeg) bool {
	if len(layout) == 0 {
		return false
	}
	for i, ls := range layout {
		if ls.Seg != i {
			return false // segment numbering is dense from 0
		}
		fi, err := os.Stat(filepath.Join(s.dir, segName(ls.Seg)))
		if err != nil {
			return false
		}
		last := i == len(layout)-1
		if (!last && fi.Size() != ls.Size) || fi.Size() < ls.Size {
			return false
		}
	}
	return true
}

// decodePartials streams a snapshot payload — the JSON object
// {"Layout":[…],"Sessions":[…]}, in that order, as encodePartials
// writes it — into a fresh Partials one digest at a time, so no
// decoded copy of the whole digest list is ever held. layoutOK vets the
// layout before any digest is decoded. ok=false on anything else: a
// snapshot is an optimization, and doubt means rebuild.
func decodePartials(payload []byte, layoutOK func([]partialsLayoutSeg) bool) (layout []partialsLayoutSeg, q *engine.Partials, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	expect := func(want any) bool {
		t, err := dec.Token()
		return err == nil && t == want
	}
	if !expect(json.Delim('{')) || !expect("Layout") || dec.Decode(&layout) != nil || !layoutOK(layout) ||
		!expect("Sessions") || !expect(json.Delim('[')) {
		return nil, nil, false
	}
	q = engine.NewPartials()
	for dec.More() {
		var ps engine.PartialSession
		if dec.Decode(&ps) != nil || q.FoldPartial(ps) != nil {
			return nil, nil, false
		}
	}
	if !expect(json.Delim(']')) || !expect(json.Delim('}')) {
		return nil, nil, false
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, nil, false // trailing data
	}
	return layout, q, true
}

// encodePartials appends a snapshot payload to buf, one digest at a
// time: the bytes json.Marshal gives for {Layout, Sessions} with
// Sessions the digests in (Index, ID) order, without building that
// list.
func encodePartials(buf []byte, layout []partialsLayoutSeg, p *engine.Partials) ([]byte, error) {
	lb, err := json.Marshal(layout)
	if err != nil {
		return nil, err
	}
	buf = append(append(append(buf, `{"Layout":`...), lb...), `,"Sessions":[`...)
	sep := ""
	err = p.EachPartial(func(ps *engine.PartialSession) error {
		b, err := json.Marshal(ps)
		buf = append(append(buf, sep...), b...)
		sep = ","
		return err
	})
	return append(buf, "]}"...), err
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
	env, err := encodePartials(envelopeHead(partialsMagic, 0), layout, s.partials)
	if err != nil {
		return fmt.Errorf("store: partials: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, partialsName), sealHead(partialsMagic, env)); err != nil {
		return fmt.Errorf("store: partials: %w", err)
	}
	s.met.partialSnapWrites.Inc()
	return nil
}
