package engine

import (
	"context"
	"reflect"
	"testing"

	"veritas/internal/abduction"
)

// Metamorphic invariants that hold by construction, checked on every
// session of a small four-scenario corpus: replaying the deployed
// setting over the true trace reproduces the logged metrics, a log's
// prefix is the log of the shorter session, and the order of the
// sampled paths carries no information.

func invariantCorpus(t *testing.T) (CorpusConfig, []SessionSpec, *Result) {
	t.Helper()
	ccfg := CorpusConfig{SessionsPer: 3, NumChunks: 40, Seed: 7, Workers: 1}
	specs, err := BuildCorpus(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{Workers: 2, Samples: 5, Seed: 7, KeepAbductions: true}, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sessions {
		if len(s.Log.Records) != ccfg.NumChunks || s.SettingA.NumChunks != ccfg.NumChunks || s.Abd == nil {
			t.Fatalf("%s: %d records, %d chunks played; want %d of each and a retained abduction", s.ID, len(s.Log.Records), s.SettingA.NumChunks, ccfg.NumChunks)
		}
	}
	return ccfg, specs, res
}

// (a) Oracle(true trace, Setting A) is the logged session: replaying
// each corpus session's deployed setting over its ground-truth trace
// gives SessionResult.SettingA bit for bit.
func TestReplayOfSettingAIsTheLog(t *testing.T) {
	_, specs, res := invariantCorpus(t)
	for i, spec := range specs {
		got, err := abduction.Replay(spec.Trace, abduction.Setting{
			Video: spec.Video, NewABR: spec.NewABR, BufferCap: spec.BufferCap, Net: *spec.Net,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		if want := res.Sessions[i].SettingA; got != want {
			t.Errorf("%s: Setting A replayed over the true trace gives\n%+v\nthe session logged\n%+v", spec.ID, got, want)
		}
	}
}

// (b) Log.Prefix(n) is the log of the same session simulated with
// MaxChunks n, so abducting either gives the same posterior.
func TestPrefixIsTheShorterSession(t *testing.T) {
	_, specs, full := invariantCorpus(t)
	const n = 25
	short := make([]SessionSpec, len(specs))
	for i, spec := range specs {
		spec.MaxChunks = n
		short[i] = spec
	}
	res, err := Run(context.Background(), Config{Workers: 2, Samples: 5, Seed: 7, KeepAbductions: true}, short, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		prefix := full.Sessions[i].Log.Prefix(n)
		if got := res.Sessions[i].Log; !reflect.DeepEqual(got, prefix) {
			t.Errorf("%s: the %d-chunk session's log is not the full log's Prefix(%d)", spec.ID, n, n)
			continue
		}
		want := res.Sessions[i].Abd
		got, err := abduction.Abduct(prefix, want.ConfigUsed())
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		if !reflect.DeepEqual(got.Observations, want.Observations) || !reflect.DeepEqual(got.ViterbiPath, want.ViterbiPath) ||
			!reflect.DeepEqual(got.SampledPaths, want.SampledPaths) || !reflect.DeepEqual(got.Posterior, want.Posterior) {
			t.Errorf("%s: abducting Prefix(%d) differs from abducting the %d-chunk session", spec.ID, n, n)
		}
	}
}

// (c) Permuting the K sampled paths leaves every Counterfactual range
// unchanged: each sample's replay is permuted with its path.
func TestSampledPathOrderIsInvisible(t *testing.T) {
	ccfg, specs, res := invariantCorpus(t)
	arms, err := BuildMatrix(ccfg, []string{"bba", "bola"}, []float64{5, 30})
	if err != nil {
		t.Fatal(err)
	}
	ranges := func(out *abduction.CounterfactualOutcome) [3][2]float64 {
		var r [3][2]float64
		r[0][0], r[0][1] = out.SSIMRange()
		r[1][0], r[1][1] = out.RebufRange()
		r[2][0], r[2][1] = out.BitrateRange()
		return r
	}
	for i, spec := range specs {
		a := res.Sessions[i].Abd
		b, err := abduction.Abduct(res.Sessions[i].Log, a.ConfigUsed())
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		k := len(b.SampledPaths)
		perm := make([]int, k) // a rotation by two, then reversed
		for j := range perm {
			perm[j] = (k - 1 - j + 2) % k
		}
		permuted := make([][]int, k)
		for j, from := range perm {
			permuted[j] = b.SampledPaths[from]
		}
		b.SampledPaths = permuted
		for _, arm := range arms {
			want, err := a.Counterfactual(arm.Setting)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.ID, arm.Name, err)
			}
			got, err := b.Counterfactual(arm.Setting)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.ID, arm.Name, err)
			}
			if ranges(got) != ranges(want) {
				t.Errorf("%s %s: ranges %v with the paths permuted, %v without", spec.ID, arm.Name, ranges(got), ranges(want))
			}
			for j, from := range perm {
				if got.Samples[j] != want.Samples[from] {
					t.Errorf("%s %s: sample %d replays to %+v, its path's replay was %+v", spec.ID, arm.Name, j, got.Samples[j], want.Samples[from])
				}
			}
		}
	}
}
