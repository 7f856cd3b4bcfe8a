package veritas

// The one definition of a scenario-mix campaign: the settings that
// shape results, their defaults, their validation, and the two byte
// formats that carry them — campaign.json in a store and the worker
// spec between processes. Every row of a store, every shard of a
// dispatch and every lease of a fleet answers the causal question this
// struct spells out, so nothing else in the package restates it
// (pinned by layering_test.go).

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"veritas/internal/abduction"
	"veritas/internal/engine"
	"veritas/internal/player"
)

// campaignSpec is the serialisable, result-shaping part of a campaign:
// the deployed Setting A (Buffer; the ABR is engine.DefaultABR), the
// corpus drawn under it (Scenarios × SessionsPer, Chunks, Seed), the
// what-if matrix (ABRs × Buffers) and the posterior sample count K.
// Zero values mean the defaults (see withDefaults). The JSON tags are
// the worker/lease wire format, flat inside workerSpec; campaign.json
// uses campaignFingerprint's spelling of the same fields.
type campaignSpec struct {
	Scenarios   []string  `json:"scenarios,omitempty"`
	SessionsPer int       `json:"sessions,omitempty"`
	Chunks      int       `json:"chunks,omitempty"`
	Samples     int       `json:"samples,omitempty"`
	Seed        int64     `json:"seed,omitempty"`
	Buffer      float64   `json:"buffer,omitempty"`
	ABRs        []string  `json:"abrs,omitempty"`
	Buffers     []float64 `json:"buffers,omitempty"`
}

// campaignFingerprint is campaignSpec under the key names campaign.json
// has carried since before the Campaign API existed (the Go field
// names, no omitempty), so pre-existing stores resume under this
// binary. It exists only as a conversion target: the compiler refuses
// campaignFingerprint(spec) the moment the two field lists differ.
type campaignFingerprint struct {
	Scenarios   []string
	SessionsPer int
	Chunks      int
	Samples     int
	Seed        int64
	Buffer      float64
	ABRs        []string
	Buffers     []float64
}

// withDefaults resolves the zero values the engine would default, to
// the constants the engine defaults them with — so an explicit
// WithSessions(8) and the default fingerprint identically: they compute
// the same campaign. Scenarios stays as given (nil = all of them; see
// fingerprints) and Chunks 0 is itself a setting, the full clip.
func (s campaignSpec) withDefaults() campaignSpec {
	if s.SessionsPer == 0 {
		s.SessionsPer = engine.DefaultSessionsPer
	}
	if s.Samples == 0 {
		s.Samples = abduction.DefaultSamples
	}
	if s.Buffer == 0 {
		s.Buffer = player.DefaultBufferCap
	}
	return s
}

// validate is the one check of a spec's values, reached by NewCampaign
// for options and for a worker's decoded lease alike.
func (s campaignSpec) validate() error {
	switch {
	case s.SessionsPer < 0 || s.Chunks < 0 || s.Samples < 0 || s.Buffer < 0:
		// The options refuse these one by one; only a garbled wire spec
		// gets this far.
		return fmt.Errorf("veritas: negative campaign setting (sessions %d, chunks %d, samples %d, buffer %g)",
			s.SessionsPer, s.Chunks, s.Samples, s.Buffer)
	case math.IsNaN(s.Buffer) || math.IsInf(s.Buffer, 1):
		return fmt.Errorf("veritas: deployed buffer %g is not a finite number of seconds", s.Buffer)
	case (len(s.ABRs) == 0) != (len(s.Buffers) == 0):
		return errors.New("veritas: matrix needs at least one ABR and one buffer size")
	}
	// Duplicates would collide — on session IDs, which a store silently
	// collapses (last write wins), or on arm names ("bba-5s" twice),
	// which double-count every session in the aggregates.
	if err := validateNames("scenario", s.Scenarios, engine.Scenarios()); err != nil {
		return err
	}
	if err := validateNames("ABR", s.ABRs, engine.ABRs()); err != nil {
		return err
	}
	for i, b := range s.Buffers {
		if !(b > 0) || math.IsInf(b, 1) {
			return fmt.Errorf("veritas: matrix buffer %g must be finite positive seconds", b)
		}
		if slices.Contains(s.Buffers[:i], b) {
			return fmt.Errorf("veritas: matrix buffer %g listed twice", b)
		}
	}
	return nil
}

// validateNames checks that names are distinct members of known.
func validateNames(kind string, names, known []string) error {
	for i, n := range names {
		if !slices.Contains(known, n) {
			return fmt.Errorf("veritas: unknown %s %q (have %v)", kind, n, known)
		}
		if slices.Contains(names[:i], n) {
			return fmt.Errorf("veritas: %s %q listed twice", kind, n)
		}
	}
	return nil
}

// clone copies the spec's slices, so the campaign no longer shares
// memory with whatever the caller passed to an option.
func (s campaignSpec) clone() campaignSpec {
	s.Scenarios = slices.Clone(s.Scenarios)
	s.ABRs = slices.Clone(s.ABRs)
	s.Buffers = slices.Clone(s.Buffers)
	return s
}

// shapesCorpus reports whether any setting that only shapes the
// synthetic corpus is set — what WithCorpus, which replaces that corpus,
// refuses to be combined with. (Chunks and Seed also reach the matrix
// and the engine, so they combine with a caller's corpus.)
func (s campaignSpec) shapesCorpus() bool {
	return s.Scenarios != nil || s.SessionsPer != 0 || s.Buffer != 0
}

// corpusConfig maps the spec onto the engine's corpus builder.
func (s campaignSpec) corpusConfig() engine.CorpusConfig {
	return engine.CorpusConfig{
		Scenarios:   s.Scenarios,
		SessionsPer: s.SessionsPer,
		NumChunks:   s.Chunks,
		BufferCap:   s.Buffer,
		Seed:        s.Seed,
	}
}

// fingerprints returns the acceptable campaign.json forms of the spec,
// most canonical first.
//
// Sharding (WithShard) is deliberately absent from the fingerprint:
// it partitions which sessions a process executes, never what any
// session computes, so every shard of a campaign — and the folded
// whole — carries the same campaign.json. The shard assignment itself
// lives in shard.json (see checkShardMeta).
//
// The first form is written into fresh stores and is byte-compatible
// with what pre-Campaign binaries wrote: the scenario list exactly as
// given, null when defaulted. Because an explicit list naming every
// scenario in default order computes the identical campaign, that case
// yields a second acceptable form with the list flipped to null (and
// vice versa), so stores written either way resume under either
// spelling.
func (s campaignSpec) fingerprints() [][]byte {
	s = s.withDefaults()
	marshal := func(s campaignSpec) []byte {
		b, err := json.MarshalIndent(campaignFingerprint(s), "", "  ")
		if err != nil {
			return nil
		}
		return b
	}
	out := [][]byte{marshal(s)}
	switch {
	case s.Scenarios == nil:
		s.Scenarios = engine.Scenarios()
		out = append(out, marshal(s))
	case slices.Equal(s.Scenarios, engine.Scenarios()):
		// Default mix in default order — the only explicit list equivalent
		// to omitting WithScenarios (order shapes corpus indices, hence
		// seeds).
		s.Scenarios = nil
		out = append(out, marshal(s))
	}
	return out
}
