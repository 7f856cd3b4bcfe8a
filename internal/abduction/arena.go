package abduction

import (
	"errors"

	"veritas/internal/hmm"
	"veritas/internal/player"
	"veritas/internal/trace"
)

// Arena is one worker's reusable storage for whole sessions, so that a
// worker streaming session after session allocates nothing it could
// reuse:
//   - the inference arena (an hmm.Scratch) and its one generator, which
//     the deployed connection of Simulate and the sampler of Abduct each
//     reseed in turn;
//   - a replay arena (a player.Scratch: one connection and one
//     throughput history) for Simulate, Replay and every replay of
//     Counterfactual;
//   - the step slabs of the session's estimate traces: the K sample
//     traces and the Baseline trace.
//
// A fleet worker runs, per session: Simulate the deployed session,
// Abduct its log, then Counterfactual and Replay for each arm — or,
// for a session that only asks interventional queries, a Predictor of
// its log instead of Abduct. Every
// result equals the package functions' bit for bit: the arena changes
// where the storage comes from, never a value.
//
// Lifetime: an Abduction made by Arena.Abduct — its observations and
// sampled paths, and the sample and Baseline traces it builds — points
// into the arena and is valid only until the next Arena.Abduct.
// Calling its methods after that fails loudly: Counterfactual returns
// ErrArenaReused, and SampleTraces, MostLikelyTrace and
// PredictDownloadTime panic with it (slices and traces already taken
// from it are not checked). Logs and metrics never point into the
// arena. Callers that keep abductions across sessions use the
// package's Abduct, or a nil *Arena, whose methods allocate per call as
// the package functions do.
//
// The zero Arena is ready to use. An Arena, and every Abduction it
// made, is not safe for concurrent use: give each goroutine its own.
type Arena struct {
	inf    hmm.Scratch
	replay player.Scratch
	steps  []trace.Point // the estimate traces' points, carved per session
	counts []int         // chunk starts per interval, for one path at a time
	epoch  uint64        // Abduct calls so far
}

// ErrArenaReused is the error of an Abduction used after its Arena
// abducted another session.
var ErrArenaReused = errors.New("abduction: Abduction used after its Arena abducted another session")

// Simulate runs the deployed session of cfg, as player.Run does, through
// the arena's connection, with jitter from the arena's generator
// reseeded with cfg.Net.Seed. The log is the caller's.
func (ar *Arena) Simulate(cfg player.Config) (*player.SessionLog, player.Metrics, error) {
	if ar == nil {
		return player.Run(cfg)
	}
	return ar.replay.Run(cfg, ar.inf.Rand())
}

// Abduct is the package's Abduct through the arena's inference slabs
// (cfg.Scratch is ignored: the arena's own is used, and none for a nil
// Arena). It ends the lifetime of the Abduction the arena made before.
func (ar *Arena) Abduct(log *player.SessionLog, cfg Config) (*Abduction, error) {
	if ar == nil {
		cfg.Scratch = nil
		return Abduct(log, cfg)
	}
	ar.epoch++ // the slabs are overwritten from here on, even if this fails
	cfg.Scratch = &ar.inf
	a, err := Abduct(log, cfg)
	if err != nil {
		return nil, err
	}
	a.arena, a.epoch = ar, ar.epoch
	return a, nil
}

// Predictor is NewPredictor through the arena's inference slabs: the
// recursion's vectors, and a transition fit's observations and slabs,
// come from the arena, and the Predictor keeps none of them, so it
// stays valid after the arena's next use. Like Abduct, it ends the
// lifetime of the Abduction the arena made before.
func (ar *Arena) Predictor(log *player.SessionLog, cfg Config) (*Predictor, error) {
	if ar == nil {
		cfg.Scratch = nil
		return NewPredictor(log, cfg)
	}
	ar.epoch++ // the slabs are overwritten from here on, even if this fails
	cfg.Scratch = &ar.inf
	return NewPredictor(log, cfg)
}

// Replay is the package's Replay through the arena's connection and
// throughput history.
func (ar *Arena) Replay(tr *trace.Trace, s Setting) (player.Metrics, error) {
	if ar == nil {
		return Replay(tr, s)
	}
	if err := s.Validate(); err != nil {
		return player.Metrics{}, err
	}
	return ar.replay.Replay(s.playerConfig(tr))
}

// live reports whether a's storage is still its own: always, unless an
// arena made it and has abducted another session since.
func (a *Abduction) live() error {
	if a.arena != nil && a.arena.epoch != a.epoch {
		return ErrArenaReused
	}
	return nil
}

// mustBeLive panics unless a's storage is still its own.
func (a *Abduction) mustBeLive() {
	if err := a.live(); err != nil {
		panic(err)
	}
}

// traceStorage returns room for k path traces of n points each and a
// Baseline trace of nb points, all in one slab, and the per-interval
// count buffer of one path trace: the arena's, grown when too small,
// or freshly allocated without one.
func (a *Abduction) traceStorage(k, n, nb int) ([]trace.Point, []int) {
	total := k*n + nb
	ar := a.arena
	if ar == nil {
		return make([]trace.Point, total), make([]int, n)
	}
	if cap(ar.steps) < total {
		ar.steps = make([]trace.Point, total)
	}
	if cap(ar.counts) < n {
		ar.counts = make([]int, n)
	}
	return ar.steps[:total], ar.counts[:n]
}
