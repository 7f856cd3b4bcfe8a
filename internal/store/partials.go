package store

// Incremental per-arm aggregates over a store. The first Partials()
// call folds every indexed row into a fresh engine.Partials and installs
// it on the store. From then on every Append (and every row a watch
// refresh tails in) folds into it, so /v1/report and the series
// endpoints answer in O(arms) instead of rescanning the corpus per
// query. Folding the rows is the only way a store gets its partials.
//
// Snapshot file. A writable store's Close still writes
// dir/partials.vagg, the reduced digests with the segment layout they
// cover: the checksummed envelope of frame.go under the magic
// "VPART1\n\x00", whose payload is the JSON
// {Layout:[{Seg,Size}], Sessions:[engine.PartialSession]}, streamed one
// digest at a time (encodePartials). This package never reads it, for
// two reasons:
//
//   - It is slower than what it caches: restoring it took about three
//     times as long as folding the binary rows it summarises (133 vs
//     47 ms at 4,000 four-arm rows, 3.28 vs 1.16 s at 10⁵): JSON token
//     decoding against fixed-width rows read straight into slabs.
//   - A checksum and segment sizes cannot tell a snapshot whose digests
//     disagree with the rows: restoring one served a report the rows
//     do not give.
//
// The writer stays, byte for byte, only because the corpus-maint
// benchmark (bench/maint.go) fails when a closed store lacks the file;
// it goes, with EachPartial and engine.PartialSession, once that
// benchmark tolerates the file's absence. Older builds that still
// restore the file keep getting the same bytes meanwhile.

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

		s.met.partialRebuilds.Inc()
		var err error
		var buf []byte
		for _, e := range todo {
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
