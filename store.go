package veritas

// The persistence primitives under the campaign layer: direct access
// to the segmented corpus store for callers that need more than
// Campaign offers (compaction across campaigns, custom serving
// stacks). Most code should go through NewCampaign with WithStore.

import "veritas/internal/store"

type (
	// FleetStore is a segmented, append-only, checksummed store of
	// per-session fleet results. It implements the engine's Sink, so
	// a campaign streams to disk as workers finish sessions.
	FleetStore = store.Store
	// FleetStoreOptions configures segment rotation and read-only mode.
	FleetStoreOptions = store.Options
)

// OpenStore opens (or creates) a fleet result store directory,
// recovering automatically from a torn tail segment left by a crashed
// campaign. Campaign-managed stores (WithStore) are opened for you;
// OpenStore is the escape hatch for custom pipelines.
func OpenStore(dir string, opt FleetStoreOptions) (*FleetStore, error) {
	return store.Open(dir, opt)
}

// MergeStores compacts one or more campaign stores into a fresh store
// at dst: sessions are deduplicated by ID last-write-wins in srcs
// order (the source listed later wins) and superseded records dropped.
// The caller's ordering is the precedence; to fold the per-shard
// stores of a sharded campaign, use FoldShards, which orders by shard
// index instead of trusting however the directories were enumerated.
func MergeStores(dst string, srcs ...string) (int, error) {
	return store.Merge(dst, store.Options{}, srcs...)
}

// FoldShards compacts the per-shard stores of a sharded campaign (see
// WithShard) into one queryable corpus at dst. Sources carrying shard
// metadata are ordered by shard index — so duplicate session keys
// resolve last-write-wins by shard index, deterministically, however
// the shard directories were listed — and the campaign fingerprint is
// propagated into dst when the shards agree on it (conflicting
// fingerprints refuse to fold). The folded store's aggregate report is
// byte-identical to the report of a single unsharded run of the same
// campaign.
func FoldShards(dst string, srcs ...string) (int, error) {
	return store.Fold(dst, store.Options{}, srcs...)
}
