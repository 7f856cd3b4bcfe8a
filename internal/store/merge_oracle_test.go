package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mergeIndexOracle is the map-based merge that mergeIndex replaced, kept
// as its differential oracle: every entry of index and then of staged,
// in order, into a map by key (so the later record wins), then sorted.
func mergeIndexOracle(index, staged []entry) []entry {
	byKey := make(map[string]entry, len(index)+len(staged))
	for _, e := range index {
		byKey[e.key] = e
	}
	for _, e := range staged {
		byKey[e.key] = e
	}
	out := make([]entry, 0, len(byKey))
	for _, e := range byKey {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// TestMergeIndexMatchesTheMapMerge: over random batches — empty, into an
// empty index, overwriting keys already indexed and keys repeated within
// the batch — mergeIndex leaves exactly the index the map merge builds.
func TestMergeIndexMatchesTheMapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 20; trial++ {
		s := &Store{}
		var want []entry
		for round := 0; round < 50; round++ {
			batch := make([]entry, rng.Intn(4*trial+1))
			for i := range batch {
				// A key space of 40 makes overwrites common; seg and off
				// tell the records of one key apart.
				batch[i] = entry{key: fmt.Sprintf("s-%02d", rng.Intn(40)), seg: round, off: int64(i)}
			}
			want = mergeIndexOracle(want, batch)
			s.staged = append(s.staged, batch...)
			s.mergeIndex()
			if len(s.staged) != 0 {
				t.Fatalf("trial %d round %d: %d entries left staged", trial, round, len(s.staged))
			}
			if len(want) == 0 && len(s.entries) == 0 {
				continue
			}
			if !reflect.DeepEqual(s.entries, want) {
				t.Fatalf("trial %d round %d: merged index\n%v\nwant\n%v", trial, round, s.entries, want)
			}
		}
	}
}
