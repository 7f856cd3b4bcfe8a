// Package veritas is a from-scratch Go reproduction of "Veritas:
// Answering Causal Queries from Video Streaming Traces" (SIGCOMM 2023).
//
// Veritas answers what-if questions about adaptive-bitrate video
// sessions from passively collected logs. The central difficulty is
// that the network's ground-truth bandwidth (GTBW) is a latent,
// confounding time series: the deployed ABR algorithm reacts to it, so
// observed throughput both under-reports it and correlates with the
// algorithm's own decisions. Veritas inverts the observations back into
// a posterior over GTBW trajectories using an Embedded Hidden Markov
// Model whose emissions wrap a domain-specific TCP throughput estimator
// conditioned on the TCP state logged at each chunk start.
//
// The package exposes the full pipeline:
//
//   - Abduct turns a session log into K posterior GTBW traces.
//   - Counterfactual replays a changed design (different ABR, buffer
//     size, or quality ladder) over those traces and reports the range
//     of outcomes.
//   - PredictDownloadTime answers interventional queries about
//     hypothetical next chunks.
//   - Baseline and Oracle provide the comparison estimators the paper
//     evaluates against.
//   - NewCampaign batches all of the above over a corpus of sessions:
//     one options-built Campaign spans the concurrent fleet engine
//     (internal/engine: a worker pool, shared transition powers, and
//     one reducer — per-session partial aggregates, FleetResult.Partials
//     — whose reports are identical for every worker count) and the
//     persistent corpus store (internal/store, which keeps each row as
//     a checksummed binary frame with its floats bit for bit — stores
//     of JSON rows from older builds still open — and folds the same
//     partials on every append, so Report never rescans stored rows),
//     with Run/Results/Report/Serve tying a campaign's execution,
//     durability, streaming iteration and HTTP serving together
//     (internal/serve is the HTTP query layer).
//   - Campaign.Dispatch scales a campaign across worker processes:
//     a supervisor (internal/dispatch) launches one re-exec'd worker
//     per shard (see DispatchWorkerMain), streams their progress,
//     restarts crashed shards with resume into their same store, and
//     folds the shard stores into one corpus whose report is
//     byte-identical to a single-process run.
//   - Campaign.ServeFleet does the same across machines: a dispatcher
//     (internal/fleetd) leases shards over HTTP to agents that join it,
//     re-leases a dead agent's shard, and folds the uploaded stores.
//
// Everything the pipeline needs is included: a bandwidth-trace
// substrate with an FCC-like generator, a TCP/network emulator standing
// in for the paper's Mahimahi testbed, a synthetic VBR video, a player,
// and the MPC/BBA/BOLA ABR algorithms. The internal/experiments package
// regenerates every figure of the paper's evaluation; see EXPERIMENTS.md.
// Its testbed.go declares the paper's setups once — Setting A, the
// what-if Setting Bs, the trace sets — and that table stays unexported.
// The programs under examples/ and the benchmark under bench/ restate
// those setups through this package's public API, as any caller would:
// they are the public restatement, not a second definition to keep in
// step.
//
// # Quick start
//
//	gt, _ := veritas.GenerateTrace(veritas.DefaultTraceConfig(1))
//	sess, _ := veritas.RunSession(veritas.SessionConfig{
//		Trace: gt, ABR: veritas.NewMPC(), BufferCap: 5,
//	})
//	abd, _ := veritas.Abduct(sess.Log, veritas.AbductionConfig{})
//	outcome, _ := veritas.Counterfactual(abd, veritas.WhatIf{
//		NewABR:    veritas.NewBBA,
//		BufferCap: 5,
//	})
//	fmt.Println(outcome.SSIMRange())
//
// And at fleet scale:
//
//	c, _ := veritas.NewCampaign(
//		veritas.WithSessions(25),
//		veritas.WithMatrix([]string{"bba", "bola"}, []float64{5, 30}),
//		veritas.WithStore("campaign.store"),
//	)
//	res, _ := c.Run(ctx)
//	rep, _ := c.Report()
//
// All randomness is seeded and every run is reproducible.
//
// # Defaults
//
// A campaign answers one fixed causal question: the deployed Setting A,
// the corpus drawn under it, the what-if matrix and K. Each default is
// one constant in the lowest package that applies it; options, flags,
// fingerprints (campaign.json) and the engine all read that constant,
// and a test keeps this table equal to them.
//
//	setting                 constant                   value
//	sessions per scenario   engine.DefaultSessionsPer  8
//	posterior samples K     abduction.DefaultSamples   5
//	deployed buffer (s)     player.DefaultBufferCap    5
//	deployed ABR            engine.DefaultABR          RobustMPC
//	scenarios               engine.Scenarios           all of them
//	chunks per session      (none: 0 is a setting)     the full clip
//	what-if matrix          (none)                     no arms
//
// The eight result-shaping settings themselves — scenarios, sessions,
// chunks, samples, seed, deployed buffer, matrix ABRs and buffers — are
// declared once (campaignSpec, in spec.go), which also owns their
// validation and the two byte formats that carry them: campaign.json in
// a store and the worker/lease spec between processes.
//
// # Two control planes
//
// internal/dispatch and internal/fleetd both turn a campaign into
// shards and end in the same fold, and they stay two packages on
// purpose. What they could share they do: a shard is run by one function
// (dispatch.RunShard: a re-exec'd worker process per shard, so a crash
// or a leak costs one shard, never the supervisor), reported over one
// protocol (the worker's NDJSON progress stream), tracked in one
// dispatch.Status, described by one spec (workerSpec, spec.go),
// pre-flighted by one shard-layout check (dispatch.CheckLayout) and one
// fold-target check (store.CheckFoldTarget), and folded by one
// store.Fold, which lands atomically and owns the one rule for
// replacing its destination.
//
// What differs is who owns a shard's store while it runs, and no merge
// removes that. The local supervisor owns the shard directories: a
// restarted worker resumes into the same store and loses only the
// session in flight. The fleet dispatcher owns nothing until an agent
// uploads a finished, verified store: between machines there is no
// shared directory to resume into, so a shard whose lease is lost is
// run again by whoever takes it, which is what the TTL, the epoch fence
// and work stealing are for. Routing local shards through lease and
// upload would trade resume for a loopback copy of every store; driving
// remote agents from the supervisor would need the shared filesystem
// the fleet exists to do without. When last sized (PR 20) a merge could
// delete dispatch.Run's supervision loop and its layout check, about
// 130 lines, and would pay for them with a second meaning for every
// lease state. So: two planes, one shard runner, one wire, one fold.
package veritas
