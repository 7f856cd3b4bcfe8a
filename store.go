package veritas

// The persistence primitives under the campaign layer: the store type a
// campaign writes to, and the one way to compact stores into a corpus.
// Most code should go through NewCampaign with WithStore.

import "veritas/internal/store"

// FleetStore is a segmented, append-only, checksummed store of
// per-session fleet results. It implements the engine's Sink, so a
// campaign streams to disk as workers finish sessions.
type FleetStore = store.Store

// FoldShards compacts the per-shard stores of a sharded campaign (see
// WithShard) into one queryable corpus at dst. Sources carrying shard
// metadata are ordered by shard index — so duplicate session keys
// resolve last-write-wins by shard index, deterministically, however
// the shard directories were listed — and the campaign fingerprint is
// propagated into dst when the shards agree on it (conflicting
// fingerprints refuse to fold). The folded store's aggregate report is
// byte-identical to the report of a single unsharded run of the same
// campaign. Plain stores, which carry neither shard.json nor
// campaign.json, fold in the order listed: the source listed later
// wins a duplicate session.
//
// The fold lands atomically: built in <dst>.folding, it replaces dst
// only when complete, so a failed or crashed fold never shows at dst
// (a crash leaves only siblings the next fold clears). dst may be
// absent, empty, or a stale fold of the same campaign — so re-running
// FoldShards into its own output refreshes it; anything else is refused.
func FoldShards(dst string, srcs ...string) (int, error) {
	return store.Fold(dst, store.Options{}, srcs...)
}
