package veritas

// The campaign layer: one object tying a batch causal-query campaign's
// corpus, what-if matrix, execution, persistence, resume, and serving
// together. A Campaign is built once from functional options and then
// drives the fleet engine (internal/engine) and the corpus store
// (internal/store) behind a single coherent surface:
//
//	c, _ := veritas.NewCampaign(
//		veritas.WithScenarios("lte", "wifi"),
//		veritas.WithSessions(25),
//		veritas.WithMatrix([]string{"bba", "bola"}, []float64{5, 30}),
//		veritas.WithStore("campaign.store"),
//	)
//	res, _ := c.Run(ctx)      // with WithResume, after a crash too
//	rep, _ := c.Report()      // aggregate report (store-backed if stored)
//	_ = c.Serve(ctx, ":8077") // query API over the persisted corpus

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"veritas/internal/abduction"
	"veritas/internal/dispatch"
	"veritas/internal/engine"
	"veritas/internal/mathx"
	"veritas/internal/serve"
	"veritas/internal/store"
	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

// TelemetrySnapshot is a point-in-time capture of a campaign's metrics
// registry: plain data that serializes to JSON, merges additively, and
// renders as Prometheus text (WritePrometheus). See Campaign.Telemetry.
type TelemetrySnapshot = telemetry.Snapshot

// Tracing data types re-exported for campaign callers.
type (
	// CampaignTrace is one tail-sampled session (or store/dispatch
	// operation) trace: wall-clock anchor, duration, error, attributes,
	// and nested spans. See Campaign.Trace.
	CampaignTrace = tracing.Trace
	// CampaignSpan is one timed stage inside a CampaignTrace.
	CampaignSpan = tracing.Span
)

// Fleet data types re-exported for campaign callers.
type (
	// FleetSpec is one corpus session (a GTBW trace to stream, or a
	// pre-recorded log to invert).
	FleetSpec = engine.SessionSpec
	// FleetArm is one what-if setting of the query matrix.
	FleetArm = engine.Arm
	// FleetResult is a completed fleet run: per-session results in
	// corpus order plus the per-session partial aggregates
	// (FleetResult.Partials) its report is built from.
	FleetResult = engine.Result
	// FleetSessionResult is one session's outcomes.
	FleetSessionResult = engine.SessionResult
	// FleetCacheStats counts hits and misses of the fleet's shared
	// transition-power cache (FleetResult.Powers).
	FleetCacheStats = engine.CacheStats
	// FleetRow is the compact per-session record the store persists,
	// the partial aggregates reduce, and Campaign.Results streams.
	FleetRow = engine.SessionRow
	// FleetArmOutcome is one session × arm cell of the what-if matrix.
	FleetArmOutcome = engine.ArmOutcome
	// FleetPredictQuery is one interventional download-time query (the
	// paper's §4.4) answered from a spec's abduction.
	FleetPredictQuery = engine.PredictQuery
	// FleetReport is the serializable aggregate report (what the
	// serving layer returns as JSON).
	FleetReport = engine.Report
)

// Scenarios returns the corpus scenario names WithScenarios accepts.
func Scenarios() []string { return engine.Scenarios() }

// ABRs returns the algorithm names WithMatrix accepts.
func ABRs() []string { return engine.ABRs() }

// ShardSessions returns how many of total corpus sessions shard index
// of count executes under WithShard's partition. It shares the
// engine's partition predicate, so a reported shard size always
// matches what a sharded campaign actually runs.
func ShardSessions(total, index, count int) int { return engine.ShardSessions(total, index, count) }

// NewArm builds a what-if arm from a WhatIf, defaulting video, network
// and buffer the same way Counterfactual does. Use it with WithArms to
// query settings outside the ABR × buffer matrix.
func NewArm(name string, w WhatIf) (FleetArm, error) {
	setting, err := w.setting()
	if err != nil {
		return FleetArm{}, err
	}
	return FleetArm{Name: name, Setting: setting}, nil
}

// campaignOptions is the resolved option set behind NewCampaign.
type campaignOptions struct {
	// The serialisable, result-shaping settings: scenario mix, deployed
	// buffer, ABR × buffer matrix, K, seed (see spec.go)...
	campaignSpec
	// ...and the caller-supplied pieces no spec can carry: a whole
	// corpus, explicit arms.
	corpus  []FleetSpec
	arms    []FleetArm
	armsSet bool

	// Execution.
	workers    int
	shardIndex int
	shardCount int // 0 = unsharded
	onResult   func(FleetSessionResult)
	onProgress func(done, total int)

	// Persistence and serving.
	storeDir      string
	readOnly      bool
	watch         bool
	watchInterval time.Duration
	readCache     int
	resume        bool

	// Multi-process dispatch (see Campaign.Dispatch).
	dispatchRestarts int
	dispatchEvents   func(DispatchEvent)
	dispatchStatus   string

	// Networked fleet dispatch (see Campaign.ServeFleet).
	fleetAddr     string
	fleetTTL      time.Duration
	fleetMaxLease time.Duration
	fleetReady    func(addr string)

	// Observability.
	noTelemetry bool
	noTracing   bool
	traceKeep   int // 0 = tracing.DefaultKeep
}

// CampaignOption configures a Campaign; see the With* constructors.
type CampaignOption func(*campaignOptions) error

// WithScenarios restricts the synthetic corpus to the named bandwidth
// regimes (see Scenarios). The default is all of them.
func WithScenarios(names ...string) CampaignOption {
	return func(o *campaignOptions) error {
		if len(names) == 0 {
			return errors.New("veritas: WithScenarios needs at least one scenario (omit it for all)")
		}
		o.Scenarios = names
		return nil
	}
}

// WithSessions sets the number of sessions per scenario (default
// engine.DefaultSessionsPer; the package doc tabulates the defaults).
func WithSessions(perScenario int) CampaignOption {
	return func(o *campaignOptions) error {
		if perScenario <= 0 {
			return fmt.Errorf("veritas: sessions per scenario %d must be positive", perScenario)
		}
		o.SessionsPer = perScenario
		return nil
	}
}

// WithChunks truncates every session's video to n chunks (0 means the
// full 10-minute clip). It shapes the corpus and the matrix arms alike.
func WithChunks(n int) CampaignOption {
	return func(o *campaignOptions) error {
		if n < 0 {
			return fmt.Errorf("veritas: chunks %d is negative (0 means the full clip)", n)
		}
		o.Chunks = n
		return nil
	}
}

// WithDeployedBuffer sets the deployed (Setting A) buffer size in
// seconds (default player.DefaultBufferCap, the paper's low-latency
// setting).
func WithDeployedBuffer(secs float64) CampaignOption {
	return func(o *campaignOptions) error {
		if !(secs > 0) || math.IsInf(secs, 1) {
			return fmt.Errorf("veritas: deployed buffer %g must be finite positive seconds", secs)
		}
		o.Buffer = secs
		return nil
	}
}

// WithCorpus replaces the synthetic scenario corpus with caller-built
// session specs. Incompatible with the scenario-mix options
// (WithScenarios, WithSessions, WithDeployedBuffer).
func WithCorpus(specs ...FleetSpec) CampaignOption {
	return func(o *campaignOptions) error {
		if len(specs) == 0 {
			return errors.New("veritas: WithCorpus needs at least one session spec")
		}
		o.corpus = specs
		return nil
	}
}

// WithMatrix sets the ABR × buffer-size what-if matrix: one arm per
// (algorithm, buffer) pair, named "<abr>-<buf>s".
func WithMatrix(abrs []string, buffers []float64) CampaignOption {
	return func(o *campaignOptions) error {
		if len(abrs) == 0 || len(buffers) == 0 {
			return errors.New("veritas: matrix needs at least one ABR and one buffer size")
		}
		o.ABRs = abrs
		o.Buffers = buffers
		return nil
	}
}

// WithArms replaces the ABR × buffer matrix with explicit arms (built
// by NewArm or by hand). Incompatible with WithMatrix.
func WithArms(arms ...FleetArm) CampaignOption {
	return func(o *campaignOptions) error {
		o.arms = arms
		o.armsSet = true
		return nil
	}
}

// WithWorkers sets the engine worker-pool size (default GOMAXPROCS).
func WithWorkers(n int) CampaignOption {
	return func(o *campaignOptions) error {
		if n < 0 {
			return fmt.Errorf("veritas: workers %d is negative (0 means GOMAXPROCS)", n)
		}
		o.workers = n
		return nil
	}
}

// WithSamples sets the Veritas posterior sample count K (default
// abduction.DefaultSamples, the paper's).
func WithSamples(k int) CampaignOption {
	return func(o *campaignOptions) error {
		if k <= 0 {
			return fmt.Errorf("veritas: samples %d must be positive (the paper uses %d)", k, abduction.DefaultSamples)
		}
		o.Samples = k
		return nil
	}
}

// WithShard restricts execution to shard index of count: only corpus
// sessions whose index i satisfies i mod count == index are run. This
// is the multi-process dispatch primitive — n processes, each built
// with WithShard(i, n) and its own WithStore directory, together
// compute exactly the sessions one unsharded process would, because
// the partition is by corpus index and every session keeps the index
// (hence the derived seed) it has in the unsharded run. Fold the
// per-shard stores back into one corpus with FoldShards; the folded
// report is byte-identical to the single-process report.
//
// Sharding partitions execution, not results: the campaign fingerprint
// (campaign.json) is the same for every shard, while each shard store
// additionally records its slice in shard.json, and a writable open
// under a different shard assignment is refused.
func WithShard(index, count int) CampaignOption {
	return func(o *campaignOptions) error {
		if count < 1 {
			return fmt.Errorf("veritas: shard count %d must be at least 1", count)
		}
		if index < 0 || index >= count {
			return fmt.Errorf("veritas: shard index %d out of range [0, %d)", index, count)
		}
		o.shardIndex = index
		o.shardCount = count
		return nil
	}
}

// WithSeed sets the base seed every trace, jitter and abduction seed in
// the campaign derives from.
func WithSeed(seed int64) CampaignOption {
	return func(o *campaignOptions) error {
		o.Seed = seed
		return nil
	}
}

// WithStore persists per-session results to the given store directory
// as workers finish them, making the campaign durable, resumable and
// servable. For scenario-mix campaigns (no WithCorpus or WithArms — Go
// values cannot be fingerprinted) the store records a fingerprint of
// every result-shaping option (campaign.json) and later opens refuse a
// store written under different settings; with caller-supplied pieces,
// store coherence is the caller's to manage.
func WithStore(dir string) CampaignOption {
	return func(o *campaignOptions) error {
		if dir == "" {
			return errors.New("veritas: WithStore needs a directory")
		}
		o.storeDir = dir
		return nil
	}
}

// WithReadOnlyStore opens the campaign store for queries only: Run and
// Results fail, Serve and Report answer from the store as of open time.
// This is how a serving process attaches to a store a campaign may
// still be appending to.
func WithReadOnlyStore() CampaignOption {
	return func(o *campaignOptions) error {
		o.readOnly = true
		return nil
	}
}

// WithWatch attaches to a store another process is still writing and
// tails it: the campaign opens the store in watch mode (read-only,
// tolerant of the directory not existing yet) and every query first
// picks up rows appended since the last one — so Serve answers
// /v1/report and the series endpoints live, mid-campaign, without
// restarts. Run and Results fail, as with WithReadOnlyStore; unlike it,
// the corpus a query sees keeps growing. Requires WithStore.
func WithWatch() CampaignOption {
	return func(o *campaignOptions) error {
		o.watch = true
		o.readOnly = true
		return nil
	}
}

// WithWatchInterval rate-limits the watch-mode tail refresh: at most
// one store re-check per interval, however many queries arrive (the
// default 0 re-checks on every query). Only meaningful with WithWatch.
func WithWatchInterval(d time.Duration) CampaignOption {
	return func(o *campaignOptions) error {
		if d < 0 {
			return fmt.Errorf("veritas: watch interval %v is negative", d)
		}
		o.watchInterval = d
		return nil
	}
}

// WithReadCache sizes the serving layer's in-process read cache of
// encoded /v1/sessions/{id} bodies (0 picks the default 256, negative
// disables). The report endpoints' body caches have fixed bounds.
func WithReadCache(entries int) CampaignOption {
	return func(o *campaignOptions) error {
		o.readCache = entries
		return nil
	}
}

// WithResume makes Run skip every session already present in the store,
// keeping corpus indices — hence seeds — stable, so a resumed campaign
// computes exactly what an uninterrupted one would have. Requires
// WithStore.
func WithResume() CampaignOption {
	return func(o *campaignOptions) error {
		o.resume = true
		return nil
	}
}

// WithProgress calls fn once per completed session, from worker
// goroutines, in completion order. fn must be safe for concurrent use.
func WithProgress(fn func(FleetSessionResult)) CampaignOption {
	return func(o *campaignOptions) error {
		o.onResult = fn
		return nil
	}
}

// WithoutTelemetry disables the campaign's metrics registry: no stage
// timers, counters, or cache fold-ins are recorded, Telemetry returns
// an empty snapshot, and /metrics on the serving layer carries only
// serve-side request metrics. Telemetry never affects results either
// way — a determinism test pins reports byte-identical with it on and
// off — so this exists for benchmarks isolating instrumentation cost.
func WithoutTelemetry() CampaignOption {
	return func(o *campaignOptions) error {
		o.noTelemetry = true
		return nil
	}
}

// WithTracing sizes the campaign's tail sampler: the tracer retains
// the keep slowest successful session traces (plus every errored one,
// ring-bounded) for Campaign.Trace and the serving layer's /v1/trace.
// Tracing is on by default with keep = 32; this option only resizes
// the sample.
func WithTracing(keep int) CampaignOption {
	return func(o *campaignOptions) error {
		if keep <= 0 {
			return fmt.Errorf("veritas: trace keep %d must be positive (use WithoutTracing to disable)", keep)
		}
		o.traceKeep = keep
		return nil
	}
}

// WithoutTracing disables the campaign's span tracer: no session,
// store or dispatch traces are recorded, Trace returns nothing, and
// /v1/trace serves an empty trace file. Tracing never affects results
// either way — a determinism test pins reports byte-identical with it
// on and off — so this exists for benchmarks isolating instrumentation
// cost.
func WithoutTracing() CampaignOption {
	return func(o *campaignOptions) error {
		o.noTracing = true
		return nil
	}
}

// WithDispatchStatus serves the dispatcher's live status API on addr
// for the duration of a Dispatch: GET /v1/status (per-shard progress,
// restarts, merged telemetry as JSON) and GET /metrics (the supervisor
// registry merged with every worker's latest snapshot, as Prometheus
// text). The listener binds when Dispatch starts and closes when it
// returns; a bind failure fails the dispatch fast.
func WithDispatchStatus(addr string) CampaignOption {
	return func(o *campaignOptions) error {
		if addr == "" {
			return errors.New("veritas: WithDispatchStatus needs a listen address")
		}
		o.dispatchStatus = addr
		return nil
	}
}

// Campaign is a batch causal-query campaign: a corpus of sessions, a
// matrix of what-if arms, and the run/persistence/serving machinery
// around them. Build one with NewCampaign; the zero value is not
// usable. Methods are safe for concurrent use, but only one Run or
// Results may execute at a time.
type Campaign struct {
	opt campaignOptions
	reg *telemetry.Registry // nil with WithoutTelemetry
	trc *tracing.Tracer     // nil with WithoutTracing

	mu      sync.Mutex
	corpus  []FleetSpec
	arms    []FleetArm
	st      *FleetStore
	last    *FleetResult
	running bool
	// workerTraces holds each shard's last streamed notable-trace set
	// after a Dispatch, so Trace keeps serving the fleet-wide view.
	workerTraces [][]tracing.Trace
}

// NewCampaign builds a campaign from functional options and validates
// their combination up front, before any corpus is built or worker
// started. The zero-option campaign mirrors the engine defaults: every
// scenario × engine.DefaultSessionsPer sessions, no arms, GOMAXPROCS
// workers, abduction.DefaultSamples posterior samples, no persistence.
func NewCampaign(opts ...CampaignOption) (*Campaign, error) {
	return newCampaign(campaignOptions{dispatchRestarts: dispatch.DefaultMaxRestarts}, opts...)
}

// newCampaign applies opts on top of o — a dispatch worker starts from
// the spec its lease carried, NewCampaign from nothing — and validates
// the result once.
func newCampaign(o campaignOptions, opts ...CampaignOption) (*Campaign, error) {
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("veritas: nil CampaignOption")
		}
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	// Corpus, arms and fingerprint materialize lazily, so the campaign
	// must own its slices: a caller reusing what it passed to an option
	// would otherwise run, and fingerprint, a different campaign.
	o.campaignSpec = o.campaignSpec.clone()
	o.corpus = slices.Clone(o.corpus)
	o.arms = slices.Clone(o.arms)
	if err := o.campaignSpec.validate(); err != nil {
		return nil, err
	}
	if o.resume && o.storeDir == "" {
		return nil, errors.New("veritas: WithResume needs WithStore: there is nowhere to resume from")
	}
	if o.watch && o.storeDir == "" {
		return nil, errors.New("veritas: WithWatch needs WithStore")
	}
	if o.readOnly && o.storeDir == "" {
		return nil, errors.New("veritas: WithReadOnlyStore needs WithStore")
	}
	if o.watchInterval > 0 && !o.watch {
		return nil, errors.New("veritas: WithWatchInterval needs WithWatch")
	}
	if o.armsSet && len(o.ABRs) > 0 {
		return nil, errors.New("veritas: WithArms and WithMatrix are mutually exclusive")
	}
	if o.corpus != nil && o.shapesCorpus() {
		return nil, errors.New("veritas: WithCorpus replaces the scenario mix; drop WithScenarios/WithSessions/WithDeployedBuffer")
	}
	if o.noTracing && o.traceKeep > 0 {
		return nil, errors.New("veritas: WithTracing and WithoutTracing are mutually exclusive")
	}
	c := &Campaign{opt: o}
	if !o.noTracing {
		keep := o.traceKeep
		if keep == 0 {
			keep = tracing.DefaultKeep
		}
		c.trc = tracing.New(keep)
	}
	if !o.noTelemetry {
		c.reg = telemetry.NewRegistry()
		// The shared transition-power cache keeps process-global
		// counters; fold them in rather than double-counting. (They are
		// process-wide, so overlapping campaigns in one process each
		// report the shared totals.)
		c.reg.RegisterFunc("veritas_powers_cache_hits_total", telemetry.CounterFunc, func() float64 {
			h, _ := mathx.SharedPowerStats()
			return float64(h)
		})
		c.reg.RegisterFunc("veritas_powers_cache_misses_total", telemetry.CounterFunc, func() float64 {
			_, m := mathx.SharedPowerStats()
			return float64(m)
		})
	}
	return c, nil
}

// Telemetry captures the campaign's metrics registry: engine stage
// latencies and throughput, store append/fsync/recovery counters,
// cache fold-ins, and — during a Dispatch — supervisor-side shard
// gauges. The snapshot is plain data (JSON-ready, Prometheus-renderable
// via WritePrometheus, additively mergeable). With WithoutTelemetry it
// is empty.
func (c *Campaign) Telemetry() TelemetrySnapshot {
	return c.reg.Snapshot()
}

// Trace returns the campaign's tail-sampled notable traces, slowest
// first: the keep slowest successful sessions (see WithTracing) plus
// every errored one, each with its nested stage spans. After a
// Dispatch it is the fleet-wide view — the supervisor's own traces
// merged with every worker's last streamed set. With WithoutTracing it
// is empty.
func (c *Campaign) Trace() []CampaignTrace {
	c.mu.Lock()
	workers := c.workerTraces
	c.mu.Unlock()
	sets := make([][]tracing.Trace, 0, 1+len(workers))
	sets = append(sets, c.trc.Traces())
	sets = append(sets, workers...)
	return tracing.Merge(c.trc.Keep(), sets...)
}

// WriteTrace renders Trace as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing: one timeline row per
// trace, stage spans nested inside. This is what `fleet -trace` writes
// and what GET /v1/trace serves.
func (c *Campaign) WriteTrace(w io.Writer) error {
	return tracing.WriteChrome(w, c.Trace())
}

// materialize builds (and caches) the corpus and arm matrix.
func (c *Campaign) materialize() ([]FleetSpec, []FleetArm, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ccfg := c.opt.corpusConfig()
	if c.corpus == nil {
		if c.opt.corpus != nil {
			c.corpus = c.opt.corpus
		} else {
			corpus, err := engine.BuildCorpus(ccfg)
			if err != nil {
				return nil, nil, err
			}
			c.corpus = corpus
		}
	}
	if c.arms == nil {
		switch {
		case c.opt.armsSet:
			c.arms = c.opt.arms
		case len(c.opt.ABRs) > 0:
			arms, err := engine.BuildMatrix(ccfg, c.opt.ABRs, c.opt.Buffers)
			if err != nil {
				return nil, nil, err
			}
			c.arms = arms
		default:
			c.arms = []FleetArm{}
		}
	}
	return c.corpus, c.arms, nil
}

// Corpus returns the campaign's materialized session specs.
func (c *Campaign) Corpus() ([]FleetSpec, error) {
	corpus, _, err := c.materialize()
	return corpus, err
}

// Arms returns the campaign's materialized what-if arms.
func (c *Campaign) Arms() ([]FleetArm, error) {
	_, arms, err := c.materialize()
	return arms, err
}

// callerSupplied reports whether a Go value no spec can carry — a
// corpus, explicit arms — shapes the campaign's results. Such a campaign
// cannot be fingerprinted or sent to another process: the options cannot
// prove two runs equal.
func (o *campaignOptions) callerSupplied() bool {
	return o.corpus != nil || o.armsSet
}

// fingerprints returns the acceptable campaign.json forms (see
// campaignSpec.fingerprints), or nil for a caller-supplied campaign,
// whose store coherence is the caller's to manage.
func (c *Campaign) fingerprints() [][]byte {
	if c.opt.callerSupplied() {
		return nil
	}
	return c.opt.campaignSpec.fingerprints()
}

// Store opens (or returns the already-open) campaign store. Campaigns
// built without WithStore have none and get an error.
func (c *Campaign) Store() (*FleetStore, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ensureStoreLocked()
}

func (c *Campaign) ensureStoreLocked() (*FleetStore, error) {
	if c.st != nil {
		return c.st, nil
	}
	if c.opt.storeDir == "" {
		return nil, errors.New("veritas: campaign has no store (use WithStore)")
	}
	opt := store.Options{
		ReadOnly:  c.opt.readOnly,
		Telemetry: c.reg,
		Tracer:    c.trc,
	}
	if c.opt.watch {
		// Watch mode tails whatever campaign owns the directory;
		// fingerprint and shard checks are the writer's discipline, not
		// the tailing reader's (the directory may not even exist yet).
		st, err := store.OpenWatch(c.opt.storeDir, opt)
		if err != nil {
			return nil, err
		}
		c.st = st
		return st, nil
	}
	var fps [][]byte
	if !c.opt.readOnly {
		fps = c.fingerprints()
	}
	if len(fps) == 0 {
		fps = [][]byte{nil}
	}
	var st *store.Store
	var err error
	for _, fp := range fps {
		// The first form is canonical (it is what a fresh store gets);
		// later forms only matter against an existing store that spelt
		// the same campaign differently.
		st, err = store.OpenCampaign(c.opt.storeDir, opt, fp)
		if err == nil || !errors.Is(err, store.ErrCampaignMismatch) {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	if !c.opt.readOnly {
		if err := c.checkShardMeta(st); err != nil {
			st.Close()
			return nil, err
		}
	}
	c.st = st
	return st, nil
}

// checkShardMeta enforces the shard discipline on a writable store:
// a sharded campaign stamps (or verifies) shard.json, and any open
// under a different shard assignment — including an unsharded open of
// a shard store — is refused, because it would mix differently
// partitioned runs in one directory. Read-only opens skip the check:
// inspecting or serving a single shard's store is legitimate.
func (c *Campaign) checkShardMeta(st *store.Store) error {
	have, ok, err := store.ReadShardMeta(st.Dir())
	if err != nil {
		return err
	}
	want := store.ShardMeta{Index: c.opt.shardIndex, Count: c.opt.shardCount}
	sharded := c.opt.shardCount > 1
	switch {
	case ok && !sharded:
		return fmt.Errorf("veritas: %s holds shard %d/%d of a campaign; reopen it with WithShard(%d, %d) or fold the shards with FoldShards",
			st.Dir(), have.Index, have.Count, have.Index, have.Count)
	case ok && (have != want):
		return fmt.Errorf("veritas: %s holds shard %d/%d, not shard %d/%d; each shard needs its own store directory",
			st.Dir(), have.Index, have.Count, want.Index, want.Count)
	case !ok && sharded:
		if st.Len() > 0 {
			// Stamping an existing unsharded store would rebrand its
			// full-campaign rows as one shard's and lock out the
			// unsharded opens that wrote them.
			return fmt.Errorf("veritas: %s already holds %d sessions from an unsharded campaign; a shard needs a fresh store directory",
				st.Dir(), st.Len())
		}
		return store.WriteShardMeta(st.Dir(), want)
	}
	return nil
}

// engineConfig maps the execution options onto the engine.
func (c *Campaign) engineConfig() engine.Config {
	return engine.Config{
		Workers:    c.opt.workers,
		Samples:    c.opt.Samples,
		Seed:       c.opt.Seed,
		ShardIndex: c.opt.shardIndex,
		ShardCount: c.opt.shardCount,
		OnResult:   c.opt.onResult,
		OnProgress: c.opt.onProgress,
		Telemetry:  c.reg,
		Tracer:     c.trc,
	}
}

// prepare materializes corpus and arms, opens the store, and assembles
// the engine config (store sink + resume skip set) for one execution.
func (c *Campaign) prepare() ([]FleetSpec, []FleetArm, engine.Config, error) {
	var zero engine.Config
	if c.opt.readOnly {
		if c.opt.watch {
			return nil, nil, zero, errors.New("veritas: campaign store is in watch mode (drop WithWatch to run)")
		}
		return nil, nil, zero, errors.New("veritas: campaign store is read-only (drop WithReadOnlyStore to run)")
	}
	corpus, arms, err := c.materialize()
	if err != nil {
		return nil, nil, zero, err
	}
	cfg := c.engineConfig()
	if c.opt.storeDir != "" {
		st, err := c.Store()
		if err != nil {
			return nil, nil, zero, err
		}
		cfg.Sink = st
		if c.opt.resume {
			skip := make(map[string]bool)
			for _, k := range st.Keys() {
				skip[k] = true
			}
			cfg.Skip = skip
		}
	}
	return corpus, arms, cfg, nil
}

// begin marks an execution in flight; end clears it.
func (c *Campaign) begin() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return errors.New("veritas: campaign is already running")
	}
	c.running = true
	return nil
}

func (c *Campaign) end(res *FleetResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.running = false
	if res != nil {
		c.last = res
	}
}

// Run executes the campaign: every corpus session through the full
// pipeline (simulate Setting A, abduct, replay every arm, answer
// interventional queries), across the worker pool, streaming to the
// store and any sinks. With WithResume, sessions already stored are
// skipped. Results are deterministic in the options, independent of
// the worker count.
func (c *Campaign) Run(ctx context.Context) (*FleetResult, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	var res *FleetResult
	defer func() { c.end(res) }()
	corpus, arms, cfg, err := c.prepare()
	if err != nil {
		return nil, err
	}
	res, err = engine.Run(ctx, cfg, corpus, arms)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Results executes the campaign like Run but returns a streaming,
// completion-order iterator of compact per-session rows, so callers
// never hold the full corpus in memory — no session logs, posteriors
// or per-session results are retained anywhere:
//
//	stream := c.Results(ctx)
//	for stream.Next() {
//		row := stream.Row()
//		...
//	}
//	if err := stream.Err(); err != nil { ... }
//
// The iterator must be drained or closed; an abandoned iterator pins
// the campaign's worker pool until ctx is cancelled, after which the
// campaign frees itself even if the iterator is never touched again.
func (c *Campaign) Results(ctx context.Context) *ResultStream {
	if err := c.begin(); err != nil {
		return &ResultStream{done: true, err: err}
	}
	corpus, arms, cfg, err := c.prepare()
	if err != nil {
		c.end(nil)
		return &ResultStream{done: true, err: err}
	}
	streamCtx, cancel := context.WithCancel(ctx)
	rows, wait := engine.Stream(streamCtx, cfg, corpus, arms)
	var (
		once    sync.Once
		res     *FleetResult
		joinErr error
	)
	join := func() (*FleetResult, error) {
		once.Do(func() {
			res, joinErr = wait()
			c.end(res)
		})
		return res, joinErr
	}
	// Release the campaign as soon as the engine run ends, whether the
	// consumer drained the stream, closed it, or abandoned it and
	// cancelled ctx — an abandoned iterator must not wedge the
	// campaign (or its store handle) forever.
	go join()
	return &ResultStream{rows: rows, cancel: cancel, wait: join}
}

// ResultStream iterates a running campaign's per-session rows in
// completion order. It is not safe for concurrent use.
type ResultStream struct {
	rows   <-chan FleetRow
	wait   func() (*FleetResult, error)
	cancel context.CancelFunc

	row    FleetRow
	res    *FleetResult
	err    error
	done   bool
	closed bool
}

// Next advances to the next completed session, blocking until one
// finishes. It returns false when the campaign ends (or fails — check
// Err).
func (s *ResultStream) Next() bool {
	if s.done {
		return false
	}
	row, ok := <-s.rows
	if !ok {
		s.finish()
		return false
	}
	s.row = row
	return true
}

// Row returns the row Next advanced to.
func (s *ResultStream) Row() FleetRow { return s.row }

// Err returns the campaign error, if any, once Next has returned false.
func (s *ResultStream) Err() error { return s.err }

// Result returns the completed run (partial aggregates, cache and
// throughput stats; Sessions is intentionally empty on the streaming
// path) once
// Next has returned false, and nil before that.
func (s *ResultStream) Result() *FleetResult { return s.res }

// Close abandons the stream: the campaign is cancelled, in-flight
// workers drain, and the cancellation itself is not reported as an
// error. Close is idempotent and safe after Next returned false.
func (s *ResultStream) Close() {
	if s.done {
		return
	}
	s.closed = true
	s.cancel()
	for range s.rows {
		// Drain so workers parked on the unbuffered channel exit.
	}
	s.finish()
}

func (s *ResultStream) finish() {
	if s.done {
		return
	}
	s.done = true
	if s.wait != nil {
		s.res, s.err = s.wait()
	}
	if s.cancel != nil {
		s.cancel()
	}
	if s.closed && errors.Is(s.err, context.Canceled) {
		s.err = nil
	}
}

// Report computes the campaign's aggregate report. With a store it is
// built from the store's incremental partial aggregates — covering
// prior (resumed-over) runs too, byte-identical to the report of an
// uninterrupted in-RAM campaign, and re-reading no row after the first
// call; without one it reports the last Run.
func (c *Campaign) Report() (*FleetReport, error) {
	p, err := c.partials()
	if err != nil {
		return nil, err
	}
	return p.Report(""), nil
}

// partials returns the reducer the campaign reports from: the store's
// (synced first, when this process writes it) or the last run's.
func (c *Campaign) partials() (*engine.Partials, error) {
	if c.opt.storeDir != "" {
		st, err := c.Store()
		if err != nil {
			return nil, err
		}
		if !c.opt.readOnly {
			if err := st.Sync(); err != nil {
				return nil, err
			}
		}
		return st.Partials()
	}
	c.mu.Lock()
	last := c.last
	c.mu.Unlock()
	if last == nil {
		return nil, errors.New("veritas: campaign has not run (and has no store to report from)")
	}
	return last.Partials, nil
}

// WriteReport renders the campaign's aggregate report as aligned text:
// the store-backed corpus report when the campaign persists (plus the
// engine stats of the last run, if one ran in this process), or the
// last run's fleet report otherwise. This is exactly what cmd/fleet
// prints.
func (c *Campaign) WriteReport(w io.Writer) error {
	c.mu.Lock()
	last := c.last
	c.mu.Unlock()
	if c.opt.storeDir == "" {
		if last == nil {
			return errors.New("veritas: campaign has not run")
		}
		return last.WriteReport(w)
	}
	p, err := c.partials()
	if err != nil {
		return err
	}
	st, err := c.Store()
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "== corpus report: %d sessions stored in %s ==\n", st.Len(), c.opt.storeDir); err != nil {
		return err
	}
	if err := engine.WriteAggregate(w, p.Report("")); err != nil {
		return err
	}
	if last != nil {
		return last.WriteEngineStats(w)
	}
	return nil
}

// Handler returns the HTTP query API over the campaign's store: list
// sessions and scenarios, fetch per-session what-if results, and the
// aggregate report family (/v1/report plus cdf, series, percentiles)
// served from incremental partial aggregates with generation-keyed
// ETags, read-cached per WithReadCache. With WithWatch the handler
// tails the store before answering, throttled by WithWatchInterval.
func (c *Campaign) Handler() (http.Handler, error) {
	st, err := c.Store()
	if err != nil {
		return nil, err
	}
	return serve.New(st,
		serve.WithCacheEntries(c.opt.readCache),
		serve.WithTelemetry(c.reg),
		serve.WithTracer(c.trc),
		// The campaign-merged view (own traces + any dispatched workers'
		// streamed sets), not just the serve-local tracer's.
		serve.WithTraceSource(c.Trace),
		serve.WithWatchInterval(c.opt.watchInterval),
	), nil
}

// Serve serves the campaign's store over HTTP on addr until ctx is
// cancelled, then drains in-flight requests for up to five seconds.
// Attach to a store another process is still writing with
// WithReadOnlyStore (a fixed snapshot) or WithWatch (a live tail).
func (c *Campaign) Serve(ctx context.Context, addr string) error {
	h, err := c.Handler()
	if err != nil {
		return err
	}
	return serve.ListenAndServe(ctx, addr, h)
}

// Close releases the campaign's store handle, if one was opened. The
// campaign remains inspectable but can no longer run, report or serve.
// Close refuses while a Run or Results is in flight — closing
// the store under active workers would abort the run mid-append;
// cancel the run's context (or drain the result stream) first.
func (c *Campaign) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return errors.New("veritas: campaign is running; cancel or drain it before Close")
	}
	if c.st == nil {
		return nil
	}
	err := c.st.Close()
	c.st = nil
	return err
}
