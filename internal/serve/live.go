package serve

// The live query tier over a dispatching campaign. While shards are
// still being written by workers, the campaign's folded store does not
// exist yet — but the per-shard stores do, and each is tailable with
// store.OpenWatch. Live watches the shard directory, tails every shard
// store, and serves the report family over their combined partial
// aggregates — the same bodies the folded store will serve, available
// mid-dispatch.
//
// Shards are combined by folding each store's partial digests in shard
// order (the same precedence Fold gives duplicate session keys), so a
// session re-run on a later shard supersedes the earlier record exactly
// as the fold will resolve it.
//
// The handler mounts under /v1/live/* rather than /v1/* because the
// dispatch status listener already promises "/v1/report returns the
// folded corpus or 503" — a contract the smoke tests poll against; the
// live tier is additive, never a reinterpretation of an existing route.

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"veritas/internal/engine"
	"veritas/internal/store"
)

// Live serves the report family over the shard stores of a
// still-running dispatch. Create with NewLive; it implements
// http.Handler with routes:
//
//	GET /v1/live/report[ /cdf | /series | /percentiles ]
//	GET /v1/live/status
//
// using the same query grammar, error envelope, ETag discipline, and
// response bodies as the store-backed /v1/report family. Before any
// shard exists the live report is an empty corpus, never an error — a
// dashboard pointed at a campaign that has not started yet just shows
// zero sessions.
type Live struct {
	mux    *http.ServeMux
	parent string
	every  time.Duration

	mu          sync.Mutex
	stores      map[string]*store.Store // shard dir -> watch store
	order       []string                // shard dirs in shard order, as last discovered
	lastRefresh time.Time
	lastFp      string
	combined    *engine.Partials
	combGen     uint64
	rounds      uint64 // combined-view rebuilds, folded into the ETag
}

// NewLive builds the live query tier over a still-dispatching
// campaign's shard directory, which may not exist yet: the handler
// serves an empty corpus until shards appear. WithWatchInterval
// rate-limits directory rediscovery and shard refresh (0 = every
// request). The tailed shard stores are deliberately left
// un-instrumented: dozens of them registering the per-store gauges
// against one registry would just overwrite each other. Close releases
// them.
func NewLive(parent string, opts ...Option) *Live {
	cfg := newConfig(opts)
	rt := router{mux: http.NewServeMux(), reg: cfg.reg, trc: cfg.trc}
	h := &Live{
		mux:    rt.mux,
		parent: parent,
		every:  cfg.watchInterval,
		stores: make(map[string]*store.Store),
	}
	mountReportFamily(rt, "/v1/live/report", "live", func() (*engine.Partials, uint64, error) {
		p, gen := h.refresh()
		return p, gen, nil
	})
	rt.route("GET /v1/live/status", h.status)
	return h
}

func (h *Live) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// refresh rediscovers shards and tails each one, rebuilding the
// combined partials when anything moved. All failures are soft: a shard
// directory mid-upload, a vanished store, an unreadable shard.json —
// each means "no update this round", and the last good view keeps
// serving.
func (h *Live) refresh() (*engine.Partials, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.combined != nil && h.every > 0 && time.Since(h.lastRefresh) < h.every {
		return h.combined, h.combGen
	}
	h.lastRefresh = time.Now()
	dirs, err := store.DiscoverShards(h.parent)
	if err != nil {
		// Parent missing, or a shard.json unreadable mid-write.
		return h.lastGoodLocked()
	}
	keep := make(map[string]bool, len(dirs))
	order := make([]string, 0, len(dirs))
	for _, dir := range dirs {
		if strings.Contains(dir, ".incoming") {
			continue // a fleetd upload still being staged
		}
		if _, ok := h.stores[dir]; !ok {
			st, err := store.OpenWatch(dir, store.Options{})
			if err != nil {
				continue // not a readable store yet; next round
			}
			h.stores[dir] = st
		}
		keep[dir] = true
		order = append(order, dir)
	}
	for dir, st := range h.stores {
		if !keep[dir] {
			st.Close()
			delete(h.stores, dir)
		}
	}
	h.order = order
	// Fingerprint the view: per-shard generations in shard order. Any
	// row tailed anywhere bumps its shard's generation, so an unchanged
	// fingerprint proves the combined partials are still current.
	var fp strings.Builder
	var sum uint64
	for _, dir := range order {
		st := h.stores[dir]
		_, _ = st.Refresh() // on error, keep this shard's last tailed view
		g := st.Generation()
		sum += g
		fmt.Fprintf(&fp, "%s=%d;", dir, g)
	}
	if h.combined != nil && fp.String() == h.lastFp {
		return h.combined, h.combGen
	}
	combined := engine.NewPartials()
	for _, dir := range order {
		p, err := h.stores[dir].Partials()
		if err != nil {
			return h.lastGoodLocked()
		}
		for _, ps := range p.Snapshot() {
			// Shard order is fold order: a later shard's record for the
			// same session wins, matching Fold's precedence.
			combined.FoldPartial(ps)
		}
	}
	h.rounds++
	h.combined = combined
	h.lastFp = fp.String()
	// Row-count generations alone could collide across rebuilds (a shard
	// vanishing while another grows); folding the rebuild count in keeps
	// the ETag moving whenever the combined view was rebuilt.
	h.combGen = sum + h.rounds<<44
	return h.combined, h.combGen
}

// lastGoodLocked returns the last good combined view, or an empty one.
// Caller holds mu.
func (h *Live) lastGoodLocked() (*engine.Partials, uint64) {
	if h.combined == nil {
		h.combined = engine.NewPartials()
	}
	return h.combined, h.combGen
}

func (h *Live) status(w http.ResponseWriter, r *http.Request) {
	p, gen := h.refresh()
	h.mu.Lock()
	shards := len(h.order)
	h.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"shards":     shards,
		"sessions":   p.Sessions(),
		"generation": gen,
	})
}

// Close releases every tailed shard store.
func (h *Live) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	var first error
	for dir, st := range h.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
		delete(h.stores, dir)
	}
	return first
}
