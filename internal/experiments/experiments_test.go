package experiments

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"veritas/internal/player"
	"veritas/internal/trace"
)

// tinyScale keeps unit-test runtime low while still exercising every
// code path of the generators.
func tinyScale() Scale {
	return Scale{NumTraces: 3, NumChunks: 40, FuguTraces: 4, TestTraces: 2, Samples: 3, Seed: 1}
}

func TestScaleValidate(t *testing.T) {
	if err := PaperScale().Validate(); err != nil {
		t.Errorf("PaperScale invalid: %v", err)
	}
	if err := QuickScale().Validate(); err != nil {
		t.Errorf("QuickScale invalid: %v", err)
	}
	bad := []func(*Scale){
		func(s *Scale) { s.NumTraces = 0 },
		func(s *Scale) { s.NumChunks = 10 },
		func(s *Scale) { s.NumChunks = 301 },
		func(s *Scale) { s.FuguTraces = 0 },
		func(s *Scale) { s.TestTraces = 0 },
		func(s *Scale) { s.Samples = 0 },
		func(s *Scale) { s.Workers = -1 },
		func(s *Scale) { s.Scenario = "dialup" },
	}
	for i, mut := range bad {
		s := QuickScale()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"abl-em", "abl-prior", "abl-sigma", "abl-tcpstate",
		"ext-square",
		"fig10", "fig11", "fig12", "fig13", "fig14",
		"fig2a", "fig2b", "fig2c", "fig5", "fig7", "fig8", "fig9"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	for _, id := range got {
		e, ok := Get(id)
		if !ok || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely registered", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", QuickScale()); err == nil {
		t.Error("unknown id should error")
	}
	if _, err := Run("fig7", Scale{}); err == nil {
		t.Error("invalid scale should error")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "t",
		Title:  "demo",
		Header: []string{"a", "longheader"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("x", 1.5)
	tab.AddRow(12, "y")
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== t: demo ==", "longheader", "note: a note", "1.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAddRowFormatting(t *testing.T) {
	tab := &Table{Header: []string{"a", "b", "c"}}
	tab.AddRow(0.123456789, 42, "s")
	if tab.Rows[0][0] != "0.1235" {
		t.Errorf("float formatting = %q", tab.Rows[0][0])
	}
	if tab.Rows[0][1] != "42" || tab.Rows[0][2] != "s" {
		t.Errorf("int/string formatting = %v", tab.Rows[0])
	}
}

// TestEveryExperimentRuns executes all seventeen generators at tiny
// scale, sanity-checks the output tables and compares each render byte
// for byte with testdata/golden/<id>.txt. A golden file with no
// registered experiment fails the test too.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := tinyScale()
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		id := strings.TrimSuffix(filepath.Base(g), ".txt")
		if _, ok := Get(id); !ok {
			t.Errorf("golden %s has no registered experiment", g)
		}
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, s)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if tab.ID != id {
				t.Errorf("table id %q", tab.ID)
			}
			if len(tab.Rows) == 0 {
				t.Error("no rows")
			}
			if len(tab.Header) == 0 {
				t.Error("no header")
			}
			for ri, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("row %d has %d cells, header has %d", ri, len(row), len(tab.Header))
				}
			}
			var sb strings.Builder
			if err := tab.Render(&sb); err != nil {
				t.Fatalf("render: %v", err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("render differs from testdata/golden/%s.txt:\n--- got\n%s--- want\n%s", id, got, want)
			}
		})
	}
}

// TestExperimentsDeterministic re-runs a representative experiment and
// demands byte-identical tables.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := tinyScale()
	for _, id := range []string{"fig7", "fig9"} {
		a, err := Run(id, s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, s)
		if err != nil {
			t.Fatal(err)
		}
		var sa, sb strings.Builder
		if err := a.Render(&sa); err != nil {
			t.Fatal(err)
		}
		if err := b.Render(&sb); err != nil {
			t.Fatal(err)
		}
		if sa.String() != sb.String() {
			t.Errorf("%s not deterministic", id)
		}
	}
}

// paperVerdicts is every verdict the experiments state, by id. An id's
// prefix is the experiment that states it.
var paperVerdicts = []string{
	"abl-prior/stability-prior-helps",
	"abl-tcpstate/wsn-helps",
	"ext-square/veritas-wins-every-band",
	"fig10/veritas-closer-than-baseline",
	"fig11/veritas-closer-than-baseline",
	"fig11/ladder-baseline-overpredicts",
	"fig12/fugu-underestimates-long-downloads",
	"fig13/veritas-closer-than-baseline",
	"fig2a/medians-non-monotonic",
	"fig2b/fugu-underestimates-high-quality",
	"fig2c/throughput-grows-with-payload",
	"fig5/estimator-within-1mbps",
	"fig7/samples-closer-than-baseline",
	"fig8/bba-more-aggressive",
	"fig9/veritas-closer-than-baseline",
}

// TestPaperVerdicts runs every experiment and pins each verdict by id:
// it holds unless the case lists it as a miss. It names any verdict
// that flips, disappears or appears. Paper scale leaves out the two
// experiments that train FuguNN (fig2b and fig12), which take most of
// a paper-scale run; quick scale runs them under every regime.
func TestPaperVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	quick := func(regime string) Scale {
		s := QuickScale()
		s.Scenario = regime
		return s
	}
	fig11Misses := []string{"fig11/veritas-closer-than-baseline", "fig11/ladder-baseline-overpredicts"}
	for _, c := range []struct {
		name   string
		scale  Scale
		skip   []string // experiments not run
		misses []string // verdicts pinned as misses
	}{
		{"quick/fcc", quick("fcc"), nil, nil},
		{"quick/lte", quick("lte"), nil, fig11Misses},
		{"quick/wifi", quick("wifi"), nil, fig11Misses},
		{"paper/fcc", PaperScale(), []string{"fig2b", "fig12"}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := map[string]Verdict{}
			for _, id := range IDs() {
				if slices.Contains(c.skip, id) {
					continue
				}
				tab, err := Run(id, c.scale)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				for _, v := range tab.Verdicts {
					if !strings.HasPrefix(v.ID, id+"/") {
						t.Errorf("%s states verdict %s", id, v.ID)
					}
					got[v.ID] = v
				}
			}
			for _, id := range paperVerdicts {
				if slices.Contains(c.skip, id[:strings.IndexByte(id, '/')]) {
					continue
				}
				v, ok := got[id]
				delete(got, id)
				switch want := !slices.Contains(c.misses, id); {
				case !ok:
					t.Errorf("verdict %s disappeared", id)
				case v.Held != want:
					t.Errorf("verdict %s flipped: held = %v, pinned %v (%s / %s)", id, v.Held, want, v.OK, v.Miss)
				}
			}
			for id, v := range got {
				t.Errorf("verdict %s appeared (held = %v); pin it in paperVerdicts", id, v.Held)
			}
		})
	}
}

func TestCoverageHelper(t *testing.T) {
	ms := metricSeries{
		Truth:    []float64{1, 5, 10},
		Baseline: []float64{0, 0, 0},
		VLow:     []float64{0.5, 6, 9},
		VHigh:    []float64{1.5, 7, 11},
	}
	// Truth inside range for traces 0 and 2; trace 1 (5 vs [6,7]) only
	// covered with slack >= 1.
	if got := ms.coverage(0); got != 2.0/3 {
		t.Errorf("coverage(0) = %v", got)
	}
	if got := ms.coverage(1); got != 1.0 {
		t.Errorf("coverage(1) = %v", got)
	}
}

// TestScenarioAndWorkersPlumb runs a counterfactual figure on the LTE
// regime with an explicit worker count, covering the engine-backed
// batch path end to end.
func TestScenarioAndWorkersPlumb(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := tinyScale()
	s.Workers = 2
	s.Scenario = "lte"
	results, err := runCounterfactual(s, toBBA)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != s.NumTraces {
		t.Fatalf("got %d results, want %d", len(results), s.NumTraces)
	}
	for i, r := range results {
		if r.Truth == (player.Metrics{}) {
			t.Errorf("result %d has an empty oracle outcome", i)
		}
		if len(r.Samples) != s.Samples {
			t.Errorf("result %d has %d samples, want %d", i, len(r.Samples), s.Samples)
		}
	}
}

// stepRange returns the smallest and largest step values of tr.
func stepRange(tr *trace.Trace) (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, p := range tr.Points() {
		min, max = math.Min(min, p.Mbps), math.Max(max, p.Mbps)
	}
	return min, max
}

func TestPoorGoodTraces(t *testing.T) {
	traces, err := poorGoodTraces(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 6 {
		t.Fatalf("got %d traces", len(traces))
	}
	// First half poor, second half good.
	for i := 0; i < 3; i++ {
		if _, max := stepRange(traces[i]); max > 0.3+1e-9 {
			t.Errorf("poor trace %d max %v", i, max)
		}
		if min, _ := stepRange(traces[i+3]); min < 9-1e-9 {
			t.Errorf("good trace %d min %v", i, min)
		}
	}
}
