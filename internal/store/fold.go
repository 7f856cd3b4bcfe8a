package store

// Folding stores. A campaign sharded across processes (or machines)
// appends each shard's sessions to its own store; Fold compacts the
// per-shard stores back into one queryable corpus. It is the one way to
// combine stores: the compaction pass (merge, last listed source wins a
// duplicate session) plus the shard discipline:
//
//   - Sources are ordered by their recorded shard index (shard.json),
//     not by the order the caller (or a directory walk) happened to
//     list them, so duplicate session keys resolve last-write-wins by
//     shard index — deterministically, however the shards were
//     enumerated. Plain stores, without shard metadata, keep caller
//     order.
//   - The campaign fingerprint (campaign.json) is propagated into the
//     folded store when every source that carries one agrees; sources
//     with conflicting fingerprints refuse to fold — mixing rows
//     computed under different settings must never happen silently.
//   - Shard metadata itself is NOT propagated: the folded store is the
//     whole campaign, not a shard of one.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// DiscoverShards returns the shard store directories directly under
// parent — subdirectories carrying a shard.json — sorted by recorded
// shard index (ties broken by name; Fold revalidates and reorders
// anyway). It returns an empty slice, not an error, when parent holds
// none: the caller decides whether "no shards here" is a problem. A
// child whose shard.json is unreadable or impossible is an error —
// skipping it would let a fold quietly miss a shard.
func DiscoverShards(parent string) ([]string, error) {
	entries, err := os.ReadDir(parent)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type kid struct {
		dir  string
		meta ShardMeta
	}
	var kids []kid
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(parent, e.Name())
		m, ok, err := ReadShardMeta(dir)
		if err != nil {
			return nil, err
		}
		if ok {
			kids = append(kids, kid{dir: dir, meta: m})
		}
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].meta.Index != kids[j].meta.Index {
			return kids[i].meta.Index < kids[j].meta.Index
		}
		return kids[i].dir < kids[j].dir
	})
	out := make([]string, len(kids))
	for i, k := range kids {
		out[i] = k.dir
	}
	return out, nil
}

// expandSources resolves Fold's source spellings: a directory that is
// itself a shard store (or any plain store) stands for itself, while a
// directory that carries no shard.json but contains shard stores
// expands to them — so callers can hand Fold the parent directory a
// dispatcher laid its shard stores out in, instead of enumerating
// every shard by hand.
func expandSources(srcs []string) ([]string, error) {
	out := make([]string, 0, len(srcs))
	for _, dir := range srcs {
		_, ok, err := ReadShardMeta(dir)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, dir)
			continue
		}
		if _, rdErr := os.ReadDir(dir); rdErr != nil {
			// Not an enumerable directory: keep it and let the fold
			// fail with its real error.
			out = append(out, dir)
			continue
		}
		kids, err := DiscoverShards(dir)
		if err != nil {
			// A child's shard.json is broken; skipping it here would
			// let the fold quietly miss a shard.
			return nil, err
		}
		if len(kids) == 0 {
			// A plain store: it folds as itself, in caller order.
			out = append(out, dir)
			continue
		}
		out = append(out, kids...)
	}
	return out, nil
}

// ShardMetaFile is the name of the shard metadata file a sharded
// campaign writes into its per-shard store directory.
const ShardMetaFile = "shard.json"

// ShardMeta records which slice of a sharded campaign a store holds:
// shard Index of Count, with sessions partitioned by corpus index
// (corpus index i belongs to shard i mod Count).
type ShardMeta struct {
	Index int
	Count int
}

// WriteShardMeta records dir's shard assignment (write-then-rename, so
// a crash cannot leave a torn file).
func WriteShardMeta(dir string, m ShardMeta) error {
	if m.Count < 1 || m.Index < 0 || m.Index >= m.Count {
		return fmt.Errorf("store: invalid shard %d/%d", m.Index, m.Count)
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(dir, ShardMetaFile), b); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// ReadShardMeta reads dir's shard assignment; ok is false when the
// store carries none (an unsharded or pre-shard store). A shard.json
// that parses but records an impossible assignment (index outside
// [0, count)) is an error, not background noise: trusting it would let
// Fold's completeness accounting pass with whole shards missing.
func ReadShardMeta(dir string) (m ShardMeta, ok bool, err error) {
	path := filepath.Join(dir, ShardMetaFile)
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ShardMeta{}, false, nil
	}
	if err != nil {
		return ShardMeta{}, false, fmt.Errorf("store: %w", err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return ShardMeta{}, false, fmt.Errorf("store: %s: %w", path, err)
	}
	if m.Count < 1 || m.Index < 0 || m.Index >= m.Count {
		return ShardMeta{}, false, fmt.Errorf("store: %s records impossible shard %d/%d", path, m.Index, m.Count)
	}
	return m, true, nil
}

// Fold compacts per-shard campaign stores into a fresh store at dst.
// Returns the number of sessions in the folded store. Each source may
// be a shard store itself or a parent directory holding shard stores
// (the layout the dispatch supervisor writes), which expands to them.
//
// When every source carries shard metadata, sources are reordered by
// shard index, and the set must be complete: exactly one store per
// shard of the recorded count. Duplicate indices, disagreeing counts
// and missing shards are errors — two stores claiming one shard is a
// deployment mistake silent picking would make nondeterministic, and
// a partial fold would serve an incomplete "campaign" under the full
// campaign fingerprint. Sources without metadata keep caller order.
// Either way sessions deduplicate by ID and the last listed source
// wins. The folded store carries the sources' campaign.json, if any, and
// so may replace a previous fold of its campaign; a fold of plain
// stores carries none and replaces no non-empty dst.
func Fold(dst string, opt Options, srcs ...string) (n int, err error) {
	if len(srcs) == 0 {
		return 0, errors.New("store: Fold needs at least one source")
	}
	tb := opt.Tracer.Start("fold", dst)
	defer func() {
		tb.SetAttr("sessions", n)
		tb.Finish(err)
	}()
	orderT0 := tb.Now()
	srcs, err = expandSources(srcs)
	if err != nil {
		return 0, err
	}
	ordered, err := orderByShard(srcs)
	if err != nil {
		return 0, err
	}
	fp, err := commonFingerprint(ordered)
	if err != nil {
		return 0, err
	}
	tb.Span("order", orderT0, map[string]any{"sources": len(ordered)})
	mergeT0 := tb.Now()
	n, err = land(dst, opt, fp, ordered)
	if err != nil {
		return 0, err
	}
	tb.Span("merge", mergeT0, nil)
	return n, nil
}

// land merges srcs into <dst>.folding, with fp (when non-nil) as its
// campaign.json, and only then renames it over dst, if replaceable
// allows; the store it replaces is renamed aside to <dst>.replaced, not
// deleted in place. So at every moment a reader can see, dst is absent,
// the store it held before, or the complete new fold, and a crash
// leaves at most the two siblings, which the next fold clears.
func land(dst string, opt Options, fp []byte, srcs []string) (int, error) {
	if dst == "" {
		return 0, errors.New("store: fold destination is empty")
	}
	dst = filepath.Clean(dst) // a trailing slash would put the siblings inside dst
	if err := replaceable(dst, [][]byte{fp}); err != nil {
		return 0, err
	}
	tmp, old := dst+".folding", dst+".replaced"
	if err := errors.Join(os.RemoveAll(tmp), os.RemoveAll(old)); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	n, err := merge(tmp, opt, srcs)
	if err == nil && fp != nil {
		err = writeFileAtomic(filepath.Join(tmp, CampaignMetaFile), fp)
	}
	if err != nil {
		os.RemoveAll(tmp)
		return 0, err
	}
	if err := os.Rename(dst, old); err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	os.RemoveAll(old) // best effort: the next fold clears what is left
	return n, nil
}

// replaceable is the one rule for when a fold may replace dst: dst is
// absent or empty, or carries a campaign.json matching one of forms —
// the fold's own, so dst is a previous fold of the same campaign,
// reproducible from its sources. Anything else is someone else's data;
// a fold with no campaign.json (of plain stores) replaces no non-empty
// dst.
func replaceable(dst string, forms [][]byte) error {
	entries, err := os.ReadDir(dst)
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(entries) == 0) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	have, raw, err := ReadCampaignMeta(dst)
	switch {
	case err != nil:
		return err
	case raw == nil:
		return fmt.Errorf("store: fold destination %s already exists and carries no %s; not replacing it", dst, CampaignMetaFile)
	case !CampaignMatches(have, forms...):
		return fmt.Errorf("store: fold destination %s holds a different campaign than this fold; not replacing it", dst)
	}
	return nil
}

// CheckFoldTarget is the fold's pre-flight, run by both control planes
// before any worker starts or lease is granted: it applies replaceable
// to dst now, not after the campaign computed, with the campaign's
// acceptable campaign.json forms and whatever campaign.json the shard
// stores srcs already carry.
func CheckFoldTarget(dst string, srcs []string, forms [][]byte) error {
	fp, err := commonFingerprint(srcs)
	if err != nil {
		return err
	}
	return replaceable(dst, append(slices.Clip(forms), fp)) // a nil fp matches nothing
}

// orderByShard sorts srcs by recorded shard index when every source
// carries shard metadata, validating that no two sources claim the
// same shard, that all agree on the shard count, and that the shard
// set is complete. When no source carries metadata (pre-shard stores)
// the caller's order is kept; a mix is an error — one metadata-less
// source must not silently disable the shard validation for the rest.
func orderByShard(srcs []string) ([]string, error) {
	type src struct {
		dir  string
		meta ShardMeta
	}
	var (
		withMeta    []src
		withoutMeta []string
	)
	for _, dir := range srcs {
		m, ok, err := ReadShardMeta(dir)
		if err != nil {
			return nil, err
		}
		if !ok {
			withoutMeta = append(withoutMeta, dir)
			continue
		}
		withMeta = append(withMeta, src{dir: dir, meta: m})
	}
	if len(withMeta) == 0 {
		return append([]string(nil), srcs...), nil // pre-shard stores: keep caller order
	}
	if len(withoutMeta) > 0 {
		return nil, fmt.Errorf("store: fold mixes shard stores with store(s) carrying no %s (%v); fold the shards alone",
			ShardMetaFile, withoutMeta)
	}
	count := withMeta[0].meta.Count
	seen := make(map[int]string, len(withMeta))
	for _, s := range withMeta {
		if s.meta.Count != count {
			return nil, fmt.Errorf("store: fold sources disagree on shard count (%s says %d, %s says %d)",
				withMeta[0].dir, count, s.dir, s.meta.Count)
		}
		if prev, dup := seen[s.meta.Index]; dup {
			return nil, fmt.Errorf("store: fold sources %s and %s both claim shard %d/%d",
				prev, s.dir, s.meta.Index, s.meta.Count)
		}
		seen[s.meta.Index] = s.dir
	}
	if len(withMeta) != count {
		// A partial fold would carry the full campaign fingerprint
		// while missing whole shards' sessions — it must fail loudly,
		// not serve a silently incomplete "campaign".
		var missing []int
		for i := 0; i < count; i++ {
			if _, ok := seen[i]; !ok {
				missing = append(missing, i)
			}
		}
		return nil, fmt.Errorf("store: fold has %d of %d shards (missing shard(s) %v)", len(withMeta), count, missing)
	}
	sort.Slice(withMeta, func(i, j int) bool { return withMeta[i].meta.Index < withMeta[j].meta.Index })
	out := make([]string, len(withMeta))
	for i, s := range withMeta {
		out[i] = s.dir
	}
	return out, nil
}

// commonFingerprint returns the campaign.json shared by every source
// that carries one (nil when none do), erroring on a structural
// conflict.
func commonFingerprint(srcs []string) ([]byte, error) {
	var (
		first     []byte
		firstFrom string
	)
	for _, dir := range srcs {
		meta, raw, err := ReadCampaignMeta(dir)
		if err != nil {
			return nil, err
		}
		switch {
		case raw == nil:
		case first == nil:
			first, firstFrom = raw, dir
		case !CampaignMatches(meta, first):
			return nil, fmt.Errorf("%w: fold sources %s and %s were written under different campaign settings",
				ErrCampaignMismatch, firstFrom, dir)
		}
	}
	return first, nil
}
