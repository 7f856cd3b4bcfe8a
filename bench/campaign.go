package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"veritas"
)

// The two campaign workloads: both go through the public facade the
// way cmd/fleet and the examples do (NewCampaign → Run → Report), and
// they are mirror images — whatif-campaign is mostly replay, and
// interventional has no simulation and no replay at all.

// whatifOptions is the README/CLI default what-if traffic, its corpus
// generated from seed.
func whatifOptions(r *run, seed int64, perScenario, workers int, dir string) []veritas.CampaignOption {
	opts := []veritas.CampaignOption{
		veritas.WithScenarios(scenarios...),
		veritas.WithSessions(perScenario),
		veritas.WithChunks(r.sz.campaignChunks),
		veritas.WithMatrix(matrixABR, matrixBuf),
		veritas.WithSamples(5),
		veritas.WithWorkers(workers),
		veritas.WithSeed(seed),
		// Retain every session's trace (the default keeps the 32
		// slowest): per-session latency is read back from the public
		// Campaign.Trace view. Spans are recorded for every session
		// either way; only retention changes.
		veritas.WithTracing(2 * len(scenarios) * perScenario),
	}
	if dir != "" {
		opts = append(opts, veritas.WithStore(dir))
	}
	return opts
}

// sessionLatencies returns the engine's per-session wall times in ms,
// from the campaign's retained traces.
func sessionLatencies(c *veritas.Campaign) []float64 {
	var out []float64
	for _, t := range c.Trace() {
		if t.Kind == "session" {
			out = append(out, t.Dur*1e3)
		}
	}
	return out
}

// reportDigest is the SHA-256 of the report JSON followed by extra:
// what "the output is correct" is pinned to.
func reportDigest(rep *veritas.FleetReport, extra []byte) (string, error) {
	body, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append(body, extra...))
	return hex.EncodeToString(sum[:]), nil
}

// pass is what one NewCampaign → Run → Report measured.
type pass struct {
	setupS   float64 // building the campaign and materializing its generated inputs
	wallS    float64 // Run + Report
	sessions int
	lat      []float64 // per-session engine wall time, ms
	digest   string
}

// campaignPass runs one campaign through the facade. extra, when set,
// adds bytes of the result to the digest.
func campaignPass(rec *recorder, parent *span, opts []veritas.CampaignOption, extra func(*veritas.FleetResult) []byte) (pass, error) {
	var p pass
	t0 := time.Now()
	sp := rec.begin(parent, "bench", "set-up")
	c, err := veritas.NewCampaign(opts...)
	if err != nil {
		return p, err
	}
	defer c.Close()
	corpus, err := c.Corpus()
	if err != nil {
		return p, err
	}
	if _, err := c.Arms(); err != nil {
		return p, err
	}
	sp.finish()
	p.setupS = time.Since(t0).Seconds()

	t1 := time.Now()
	sp = rec.begin(parent, "veritas", "Campaign.Run")
	res, err := c.Run(context.Background())
	sp.finish()
	if err != nil {
		return p, err
	}
	sp = rec.begin(parent, "veritas", "Campaign.Report")
	rep, err := c.Report()
	sp.finish()
	if err != nil {
		return p, err
	}
	p.wallS = time.Since(t1).Seconds()
	p.sessions = res.Executed
	p.lat = sessionLatencies(c)
	if res.Executed != len(corpus) || rep.Sessions != len(corpus) || len(p.lat) != len(corpus) {
		return p, fmt.Errorf("campaign over %d sessions executed %d, reported %d, traced %d",
			len(corpus), res.Executed, rep.Sessions, len(p.lat))
	}
	var more []byte
	if extra != nil {
		more = extra(res)
	}
	p.digest, err = reportDigest(rep, more)
	return p, err
}

// timedPasses repeats the pass until the budget is spent (at least
// once); every pass is one unit of throughput and adds its sessions'
// latencies. It returns the passes' report digests; the first is the
// run's.
func (r *run) timedPasses(one func(i int, parent *span) (pass, error)) ([]string, error) {
	var digests []string
	for i := 0; i == 0 || r.wall < r.budget.Seconds(); i++ {
		parent := r.rec.begin(r.root, "bench", fmt.Sprintf("campaign %d", i))
		p, err := one(i, parent)
		parent.finish()
		if err != nil {
			return nil, err
		}
		r.wall += p.wallS
		r.ops += float64(p.sessions)
		r.rates = append(r.rates, float64(p.sessions)/p.wallS)
		r.attempted += p.sessions
		r.lat["session"] = append(r.lat["session"], p.lat...)
		digests = append(digests, p.digest)
	}
	r.digest = digests[0]
	return digests, nil
}

// reference runs the same sub-corpus with one worker and with
// r.workers and fails the run when the two reports differ: results
// must not depend on the worker count.
func (r *run) reference(opts func(workers int) []veritas.CampaignOption, extra func(*veritas.FleetResult) []byte) error {
	sp := r.rec.begin(r.root, "bench", "worker-count reference")
	defer sp.finish()
	one, err := campaignPass(nil, nil, opts(1), extra)
	if err != nil {
		return err
	}
	many, err := campaignPass(nil, nil, opts(r.workers), extra)
	if err != nil {
		return err
	}
	r.attempted++
	if one.digest != many.digest {
		r.fail("report with 1 worker (%s) differs from %d workers (%s)", one.digest, r.workers, many.digest)
	}
	return nil
}

func runWhatif(r *run) error {
	// Pass i runs the corpus of seed+i: sessions differ in cost with the
	// network trace they draw, and a run that repeated one 32-session
	// corpus would report that corpus's luck (± 7 % between seeds), not
	// the engine's speed.
	_, err := r.timedPasses(func(i int, parent *span) (pass, error) {
		dir := filepath.Join(r.dir, fmt.Sprintf("campaign-%d.store", i))
		defer os.RemoveAll(dir)
		p, err := campaignPass(r.rec, parent, whatifOptions(r, r.seed+int64(i), r.sz.campaignSessions, r.workers, dir), nil)
		r.setup = append(r.setup, p.setupS)
		return p, err
	})
	if err != nil {
		return err
	}
	return r.reference(func(workers int) []veritas.CampaignOption {
		return whatifOptions(r, r.seed, r.sz.refSessions, workers, "")
	}, nil)
}

// simulateLogs records logsPerScenario MPC sessions of every scenario
// (simulation only: no abduction) and returns their specs with the log
// attached.
func simulateLogs(r *run, perScenario int) ([]veritas.FleetSpec, error) {
	gen, err := veritas.NewCampaign(
		veritas.WithScenarios(scenarios...),
		veritas.WithSessions(perScenario),
		veritas.WithChunks(r.sz.campaignChunks),
		veritas.WithSeed(r.seed),
	)
	if err != nil {
		return nil, err
	}
	specs, err := gen.Corpus()
	if err != nil {
		return nil, err
	}
	specs = append([]veritas.FleetSpec(nil), specs...)
	for i := range specs {
		specs[i].SimulateOnly = true
	}
	sim, err := veritas.NewCampaign(veritas.WithCorpus(specs...), veritas.WithWorkers(r.workers), veritas.WithSeed(r.seed))
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(context.Background())
	if err != nil {
		return nil, err
	}
	for i := range specs {
		specs[i].Log = res.Sessions[i].Log
	}
	return specs, nil
}

// prefixSpecs turns recorded sessions into the interventional corpus:
// for every log and every prefix length, one spec that may only see
// the first n chunks and asks, for each ladder quality, how long the
// next chunk would take to download (paper §4.4).
func prefixSpecs(logs []veritas.FleetSpec, prefixes []int) []veritas.FleetSpec {
	var out []veritas.FleetSpec
	for _, src := range logs {
		recs := src.Log.Records
		for _, n := range prefixes {
			if n > len(recs) {
				n = len(recs)
			}
			last := recs[n-1]
			next := n
			if next >= src.Video.NumChunks() {
				next = src.Video.NumChunks() - 1
			}
			spec := veritas.FleetSpec{
				ID:       fmt.Sprintf("%s-p%03d", src.ID, n),
				Scenario: src.Scenario,
				Log:      src.Log.Prefix(n),
			}
			for q := 0; q < src.Video.NumQualities(); q++ {
				spec.Predict = append(spec.Predict, veritas.FleetPredictQuery{
					StartSecs: last.End, TCP: last.TCP, SizeBytes: src.Video.Size(next, q),
				})
			}
			out = append(out, spec)
		}
	}
	return out
}

func interventionalOptions(r *run, specs []veritas.FleetSpec, workers int) []veritas.CampaignOption {
	return []veritas.CampaignOption{
		veritas.WithCorpus(specs...),
		veritas.WithWorkers(workers),
		veritas.WithSamples(5),
		veritas.WithSeed(r.seed),
		veritas.WithTracing(2 * len(specs)),
	}
}

// predictionBytes folds every session's predictions into the digest:
// the report only carries their summary.
func predictionBytes(res *veritas.FleetResult) []byte {
	var all [][]float64
	for _, s := range res.Sessions {
		all = append(all, s.Predictions)
	}
	b, _ := json.Marshal(all) // float slices always marshal
	return b
}

func runInterventional(r *run) error {
	var specs []veritas.FleetSpec
	for i := 0; i < r.sz.setups; i++ {
		t0 := time.Now()
		sp := r.rec.begin(r.root, "bench", "simulate logs")
		logs, err := simulateLogs(r, r.sz.logsPerScenario)
		sp.finish()
		if err != nil {
			return err
		}
		specs = prefixSpecs(logs, r.sz.prefixes)
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	digests, err := r.timedPasses(func(i int, parent *span) (pass, error) {
		return campaignPass(r.rec, parent, interventionalOptions(r, specs, r.workers), predictionBytes)
	})
	if err != nil {
		return err
	}
	// Every pass ran the same specs and must have produced the same report.
	for i, d := range digests {
		r.attempted++
		if d != digests[0] {
			r.fail("pass %d report digest %s differs from %s", i, d, digests[0])
		}
	}
	step := len(specs) / (len(scenarios) * r.sz.refSessions)
	if step < 1 {
		step = 1
	}
	var sub []veritas.FleetSpec
	for i := 0; i < len(specs); i += step {
		sub = append(sub, specs[i])
	}
	return r.reference(func(workers int) []veritas.CampaignOption {
		return interventionalOptions(r, sub, workers)
	}, predictionBytes)
}
