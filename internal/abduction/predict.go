package abduction

import (
	"veritas/internal/hmm"
	"veritas/internal/player"
	"veritas/internal/tcp"
)

// Predictor answers the interventional query of §4.4 for one session
// log from the one value the query reads of an abduction: the Viterbi
// state of the last observed chunk. Where Abduct runs the whole
// forward pass — the N×S α slab and K samples drawn backward from it —
// a Predictor runs the same pass without α (hmm.Model.LastViterbiState),
// the Viterbi recursion alone, reading the log's
// observations one at a time, so it costs O(S) storage whatever the
// log's length. Its predictions equal the PredictDownloadTime of
// Abduct's Abduction for the same log and Config bit for bit.
//
// A Predictor keeps a copy of the last observation, the state and the
// model, which is immutable once built: nothing points into an arena,
// so it stays valid across any later use of the Scratch or Arena that
// built it, and is safe for concurrent use.
type Predictor struct {
	model     *hmm.Model
	deltaSecs float64
	last      hmm.Observation
	state     int
}

// NewPredictor builds the Predictor of log under cfg. It shares
// Abduct's preamble — grid sizing from the largest throughput, the
// checks and conversion of every record, IgnoreTCPState and
// FitTransitions — and refuses every log and Config that Abduct
// refuses, with the same error. cfg.Scratch, when set, lends the
// recursion its vectors (and a transition fit its slabs); the
// Predictor keeps none of them. NumSamples and Seed only matter as
// Abduct's: no sample is drawn.
func NewPredictor(log *player.SessionLog, cfg Config) (*Predictor, error) {
	cfg, _, model, err := prepare(log, cfg, false)
	if err != nil {
		return nil, err
	}
	if cfg.NumSamples < 0 {
		return nil, hmm.ErrNegativeSamples // as Abduct's Infer does
	}
	at := func(i int) hmm.Observation {
		o, _ := observation(i, log.Records[i], cfg.HMM.DeltaSecs, cfg.IgnoreTCPState) // checked by prepare
		return o
	}
	n := len(log.Records)
	state, err := model.LastViterbiState(n, at)
	if err != nil {
		return nil, err
	}
	model.SetScratch(nil)
	return &Predictor{model: model, deltaSecs: cfg.HMM.DeltaSecs, last: at(n - 1), state: state}, nil
}

// PredictDownloadTime is Abduction.PredictDownloadTime: the predicted
// download time of a hypothetical next chunk of sizeBytes starting at
// startSecs with TCP state st. As there, the advance takes
// O(gap·S·band) time and touches no shared state, and the query must
// pass the Config's CheckQuery; outside it the answer is unspecified,
// and the estimator need not return.
func (p *Predictor) PredictDownloadTime(startSecs float64, st tcp.State, sizeBytes float64) float64 {
	return predictDownloadTime(p.model, p.deltaSecs, p.last.StartInterval, p.state, startSecs, st, sizeBytes)
}
