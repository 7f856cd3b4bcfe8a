package engine

import (
	"time"

	"veritas/internal/mathx"
	"veritas/internal/telemetry"
)

// engineMetrics holds the engine's resolved metric handles, looked up
// once per Run so the worker hot path records with single atomic adds.
// The struct is always non-nil (callers read its fields); with
// telemetry off every handle is nil — a no-op — and enabled gates the
// clock reads, so uninstrumented runs pay nothing. Nothing recorded
// here feeds back into computation, which is what keeps fleet results
// byte-identical with telemetry on and off.
type engineMetrics struct {
	enabled bool

	simulate *telemetry.Histogram
	abduct   *telemetry.Histogram
	replay   *telemetry.Histogram
	predict  *telemetry.Histogram
	session  *telemetry.Histogram

	sessions    *telemetry.Counter
	powerHits   *telemetry.Counter
	powerMisses *telemetry.Counter
	// The power-cache miss split by cause: cold misses are healthy
	// one-per-grid warmup, collision and capacity misses repeat on
	// every lookup and indicate a thrashing registry. The plain
	// powerMisses total stays for dashboard compatibility.
	powerColdMisses      *telemetry.Counter
	powerCollisionMisses *telemetry.Counter
	powerCapacityMisses  *telemetry.Counter
}

func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	// A nil registry hands out nil (no-op) metrics, so the handles below
	// are all nil exactly when enabled is false.
	return &engineMetrics{
		enabled: reg != nil,

		simulate: reg.Histogram(`veritas_engine_stage_seconds{stage="simulate"}`),
		abduct:   reg.Histogram(`veritas_engine_stage_seconds{stage="abduct"}`),
		replay:   reg.Histogram(`veritas_engine_stage_seconds{stage="replay"}`),
		predict:  reg.Histogram(`veritas_engine_stage_seconds{stage="predict"}`),
		session:  reg.Histogram("veritas_engine_session_seconds"),

		sessions:    reg.Counter("veritas_engine_sessions_completed_total"),
		powerHits:   reg.Counter("veritas_engine_power_cache_hits_total"),
		powerMisses: reg.Counter("veritas_engine_power_cache_misses_total"),

		powerColdMisses:      reg.Counter(`veritas_engine_power_cache_miss_total{cause="cold"}`),
		powerCollisionMisses: reg.Counter(`veritas_engine_power_cache_miss_total{cause="collision"}`),
		powerCapacityMisses:  reg.Counter(`veritas_engine_power_cache_miss_total{cause="capacity"}`),
	}
}

// now is the stage clock: zero when telemetry is off, so uninstrumented
// runs pay no clock reads at all. The zero time is never observed —
// every histogram that could see it is nil when enabled is false.
func (m *engineMetrics) now() time.Time {
	if !m.enabled {
		return time.Time{}
	}
	return time.Now()
}

// observe records elapsed time since t0 into h (no-op when off).
func (m *engineMetrics) observe(h *telemetry.Histogram, t0 time.Time) {
	h.Since(t0)
}

// sessionDone records one completed session: its wall time and the
// throughput counter.
func (m *engineMetrics) sessionDone(t0 time.Time) {
	m.session.Since(t0)
	m.sessions.Inc()
}

// powers records the run's shared transition-power cache delta, both
// the legacy hit/miss totals and the per-cause miss split.
func (m *engineMetrics) powers(p mathx.SharedPowersStats) {
	m.powerHits.Add(p.Hits)
	m.powerMisses.Add(p.Misses())
	m.powerColdMisses.Add(p.ColdMisses)
	m.powerCollisionMisses.Add(p.CollisionMisses)
	m.powerCapacityMisses.Add(p.CapacityMisses)
}
