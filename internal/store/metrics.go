package store

import "veritas/internal/telemetry"

// storeMetrics holds the store's resolved metric handles. With no
// registry every handle is nil and every record call is a no-op (the
// telemetry package's nil-metric contract), so the append path carries
// no "is telemetry on?" branches beyond gating its clock reads.
type storeMetrics struct {
	appends     *telemetry.Counter
	appendBytes *telemetry.Counter
	appendSec   *telemetry.Histogram
	fsyncs      *telemetry.Counter
	fsyncSec    *telemetry.Histogram
	rotations   *telemetry.Counter
	reads       *telemetry.Counter
	segments    *telemetry.Gauge
	recoveries  *telemetry.Counter
	recoveredB  *telemetry.Counter
	scLoads     *telemetry.Counter // segments indexed from their sidecar (Open, or a watch store's first sight)
	scScans     *telemetry.Counter // segments walked from offset 0 instead, the newest included

	// Live query tier: incremental-aggregate and watch-mode health.
	partialFolds      *telemetry.Counter // rows folded incrementally (append or tail)
	partialRebuilds   *telemetry.Counter // partials built by folding every indexed row
	partialSnapWrites *telemetry.Counter // partials snapshot files written
	watchRefreshes    *telemetry.Counter // watch Refresh passes
	watchRows         *telemetry.Counter // rows picked up by watch refreshes
	watchResets       *telemetry.Counter // full watch resets (store shrank or vanished)
}

func newStoreMetrics(reg *telemetry.Registry) storeMetrics {
	if reg == nil {
		return storeMetrics{}
	}
	return storeMetrics{
		appends:     reg.Counter("veritas_store_appends_total"),
		appendBytes: reg.Counter("veritas_store_append_bytes_total"),
		appendSec:   reg.Histogram("veritas_store_append_seconds"),
		fsyncs:      reg.Counter("veritas_store_fsyncs_total"),
		fsyncSec:    reg.Histogram("veritas_store_fsync_seconds"),
		rotations:   reg.Counter("veritas_store_segment_rotations_total"),
		reads:       reg.Counter("veritas_store_reads_total"),
		segments:    reg.Gauge("veritas_store_segments"),
		recoveries:  reg.Counter("veritas_store_recoveries_total"),
		recoveredB:  reg.Counter("veritas_store_recovered_bytes_total"),
		scLoads:     reg.Counter("veritas_store_sidecar_loads_total"),
		scScans:     reg.Counter("veritas_store_sidecar_scans_total"),

		partialFolds:      reg.Counter("veritas_store_partial_folds_total"),
		partialRebuilds:   reg.Counter("veritas_store_partial_rebuilds_total"),
		partialSnapWrites: reg.Counter("veritas_store_partial_snapshot_writes_total"),
		watchRefreshes:    reg.Counter("veritas_store_watch_refreshes_total"),
		watchRows:         reg.Counter("veritas_store_watch_rows_total"),
		watchResets:       reg.Counter("veritas_store_watch_resets_total"),
	}
}
