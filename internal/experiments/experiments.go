// Package experiments regenerates every table and figure in the paper's
// evaluation (§2.2 Figure 2, §3.2 Figure 5, §4 Figures 7–12, appendix
// Figures 13–14). Each experiment is a pure function of a Scale (how
// many traces/chunks to run) returning a Table: the same rows/series the
// paper plots, plus notes stating the qualitative shape the paper
// reports so the reader can check it held.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"veritas/internal/trace"
	"veritas/internal/video"
)

// Table is one regenerated figure: a titled grid of rows plus notes
// recording the paper's expected shape and our measured summary.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row; values are rendered with %v for
// strings and %.4g for floats.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, wd := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", wd))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Scale controls experiment size so the full paper-scale run and quick
// bench/test runs share one code path.
type Scale struct {
	NumTraces  int   // traces per counterfactual set (paper: 100)
	NumChunks  int   // chunks per session (paper: 300 ≙ 10 min)
	FuguTraces int   // training traces for Fugu experiments (paper: 100)
	TestTraces int   // random-ABR test traces for fig12 (paper: 30)
	Samples    int   // Veritas posterior samples K (paper: 5)
	Seed       int64 // base seed; every derived seed is offset from it
	// Workers sizes the fleet-engine worker pool the batch experiments
	// run on; 0 means GOMAXPROCS. Results are identical for every
	// worker count.
	Workers int
	// Scenario selects the bandwidth regime of the counterfactual trace
	// set: one of trace.Regimes() ("fcc", "lte", "wifi"); empty means
	// the paper's FCC-like regime.
	Scenario string
}

// PaperScale is the full evaluation size of the paper.
func PaperScale() Scale {
	return Scale{NumTraces: 100, NumChunks: 300, FuguTraces: 100, TestTraces: 30, Samples: 5, Seed: 1}
}

// QuickScale is a reduced size for benchmarks and CI: same code path,
// minutes instead of tens of minutes.
func QuickScale() Scale {
	return Scale{NumTraces: 12, NumChunks: 90, FuguTraces: 10, TestTraces: 4, Samples: 5, Seed: 1}
}

// Validate reports the first invalid field, if any.
func (s Scale) Validate() error {
	switch {
	case s.NumTraces <= 0:
		return fmt.Errorf("experiments: NumTraces %d <= 0", s.NumTraces)
	case s.NumChunks < 20:
		return fmt.Errorf("experiments: NumChunks %d < 20", s.NumChunks)
	case s.NumChunks > video.Default().NumChunks():
		return fmt.Errorf("experiments: NumChunks %d > the default clip's %d", s.NumChunks, video.Default().NumChunks())
	case s.FuguTraces <= 0:
		return fmt.Errorf("experiments: FuguTraces %d <= 0", s.FuguTraces)
	case s.TestTraces <= 0:
		return fmt.Errorf("experiments: TestTraces %d <= 0", s.TestTraces)
	case s.Samples <= 0:
		return fmt.Errorf("experiments: Samples %d <= 0", s.Samples)
	case s.Workers < 0:
		return fmt.Errorf("experiments: Workers %d < 0", s.Workers)
	}
	if _, err := trace.RegimeConfig(s.Scenario, s.Seed); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// Experiment is a registered figure generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) (*Table, error)
}

var registry = map[string]Experiment{}

func register(id, title string, run func(Scale) (*Table, error)) {
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// IDs returns the registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Run executes one experiment by id.
func Run(id string, s Scale) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return e.Run(s)
}
