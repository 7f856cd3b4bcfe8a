package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json: the one place workload names, metric
// names, units, directions and regression bounds are fixed.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summary is one metric of one workload over the suite's repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// workloadResult is one workload's row of a result file.
type workloadResult struct {
	Runs      int                `json:"runs"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Metrics   map[string]summary `json:"metrics"`
}

// resultFile is what the suite writes and -compare reads.
type resultFile struct {
	Seed       int64                     `json:"seed"`
	RunSeconds int                       `json:"run_seconds"`
	Workers    int                       `json:"workers"`
	Traced     bool                      `json:"traced"`
	Claim      *string                   `json:"claim"` // the benchmark claims no gain: null
	Workloads  map[string]workloadResult `json:"workloads"`
}

// child runs one (workload, repetition) in a fresh process — so cold
// start, the process-wide power cache and the RSS high-water mark are
// properties of one run — and returns its result line and the "also"
// line before it.
func child(name string, seed int64, seconds int, traced bool) (result, also, error) {
	var res result
	var extra also
	exe, err := os.Executable()
	if err != nil {
		return res, extra, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, extra, fmt.Errorf("%s: no result line (%v; process: %v)", name, err, runErr)
	}
	if len(lines) >= 2 {
		if b, ok := strings.CutPrefix(lines[len(lines)-2], "also "); ok {
			if err := json.Unmarshal([]byte(b), &extra); err != nil {
				return res, extra, fmt.Errorf("%s: also line: %w", name, err)
			}
		}
	}
	return res, extra, nil
}

// suiteReps is how often the suite repeats a workload: result files
// compare only when both sides took equally many runs.
const suiteReps = 5

// suite runs every workload suiteReps times (once when traced), prints
// each metric's median with quartiles and sample count, writes the
// result file, and returns the exit code: non-zero when any check
// failed.
func suite(seed int64, seconds int, traced bool, outDir, outFile string) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	reps := suiteReps
	if traced {
		reps = 1
	}
	if outFile == "" {
		outFile = filepath.Join(outDir, "results.json")
		if traced {
			outFile = filepath.Join(outDir, "layers.json")
		}
	}
	file := resultFile{Seed: seed, RunSeconds: seconds, Workers: loadWorkers(), Traced: traced, Workloads: map[string]workloadResult{}}
	exit := 0
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	// Round robin, so that each workload's repetitions are spread over
	// the whole suite and a slow quarter of an hour on a shared box
	// touches every workload a little instead of one a lot.
	for i := 0; i < reps; i++ {
		for _, w := range workloads {
			wr := file.Workloads[w.name]
			res, extra, err := child(w.name, seed, seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				exit = 1
				continue
			}
			wr.Runs++
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if !res.Correct {
				exit = 1
			}
			// Same seed, same inputs: every repetition must report the
			// same output digest.
			if wr.Digest == "" {
				wr.Digest = extra.Digest
			} else if extra.Digest != wr.Digest {
				fmt.Fprintf(os.Stderr, "bench: %s: repetition %d digest %s differs from %s\n", w.name, i, extra.Digest, wr.Digest)
				wr.Failed++
				exit = 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for _, set := range []map[string]metric{res.Metrics, extra.Metrics} {
				for n, m := range set {
					values[w.name][n] = append(values[w.name][n], m.Value)
					units[n] = m.Unit
				}
			}
			file.Workloads[w.name] = wr
		}
	}
	for name, wr := range file.Workloads {
		wr.Metrics = map[string]summary{}
		for n, vs := range values[name] {
			q1, q3 := quartiles(vs)
			wr.Metrics[n] = summary{Unit: units[n], Median: median(vs), Q1: q1, Q3: q3, N: len(vs), Values: vs}
		}
		file.Workloads[name] = wr
	}
	printSuite(file)
	if err := writeJSON(outFile, file); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote %s\n", outFile)
	if traced {
		if err := writeBudget(outDir); err != nil {
			fatal(err)
		}
	}
	return exit
}

func printSuite(file resultFile) {
	for _, w := range workloads {
		wr := file.Workloads[w.name]
		fmt.Printf("\n== %s: %d runs, seed %d, %d s, %d workers; attempted %d, failed %d (failed_ratio %.6g) ==\n",
			w.name, wr.Runs, file.Seed, file.RunSeconds, file.Workers, wr.Attempted, wr.Failed, float64(wr.Failed)/float64(max(wr.Attempted, 1)))
		names := make([]string, 0, len(wr.Metrics))
		for n := range wr.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := wr.Metrics[n]
			note := ""
			if n == "e2e.throughput_per_s" {
				note = fmt.Sprintf("  = %s (%s)", w.alias, w.unit)
			}
			fmt.Printf("%-42s %14.6g %-6s q1 %-12.6g q3 %-12.6g spread %5.1f%% n=%d%s\n", n, s.Median, s.Unit, s.Q1, s.Q3, 100*spread(s.Values), s.N, note)
		}
	}
}

// compareFiles prints, per workload × end-to-end metric, both medians
// with quartiles, the relative difference (base: a) and the bound, and
// returns non-zero when b is worse than a by more than the bound or
// more operations failed. A pair inside the bound whose runs spread
// wider than the bound is not called unchanged but unresolved. The
// demoted e2e.* metrics both files hold are printed the same way
// without a verdict: they have no bound.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	load := func(path string) resultFile {
		var f resultFile
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &f)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		return f
	}
	a, b := load(pathA), load(pathB)
	exit := 0
	fmt.Printf("a = %s, b = %s; worse = (b-a)/a in the metric's worse direction\n", pathA, pathB)
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		fmt.Printf("\n%s\n", w.name)
		row := func(m specMetric, gated bool) {
			sa, okA := wa.Metrics[m.Name]
			sb, okB := wb.Metrics[m.Name]
			if !okA || !okB || sa.Median == 0 {
				if gated {
					fmt.Printf("  %-22s missing from one side\n", m.Name)
					exit = 1
				}
				return
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			widest := max(spread(sa.Values), spread(sb.Values))
			verdict := fmt.Sprintf("no bound (runs spread up to %.0f%%)", 100*widest)
			if gated {
				verdict = fmt.Sprintf("bound %.0f%%  ok", 100*m.Bound)
				switch {
				case worse > m.Bound:
					verdict = fmt.Sprintf("bound %.0f%%  OUTSIDE BOUND", 100*m.Bound)
					exit = 1
				case widest > m.Bound:
					verdict = fmt.Sprintf("bound %.0f%%  unresolved: runs spread %.0f%%, wider than the bound", 100*m.Bound, 100*widest)
				}
			}
			fmt.Printf("  %-22s a %-11.6g [%.6g, %.6g] n=%d   b %-11.6g [%.6g, %.6g] n=%d   worse %+7.2f%%  %s\n",
				m.Name, sa.Median, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N, 100*worse, verdict)
		}
		for _, m := range spec.EndToEnd {
			row(m, true)
		}
		for _, m := range spec.PerLayer {
			if strings.HasPrefix(m.Name, "e2e.") {
				row(m, false)
			}
		}
		ra := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		rb := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		verdict := "ok"
		if rb > ra {
			verdict = "ROSE"
			exit = 1
		}
		fmt.Printf("  %-22s a %d/%d   b %d/%d   %s\n", "failed_ratio", wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, verdict)
	}
	return exit
}

// writeBudget renders "where a what-if session's time goes" from the
// whatif-campaign traced run as a markdown table (README.md carries a
// copy).
func writeBudget(outDir string) error {
	b, err := os.ReadFile(filepath.Join(outDir, "layers-whatif-campaign.json"))
	if err != nil {
		return err
	}
	var lf layerFile
	if err := json.Unmarshal(b, &lf); err != nil {
		return err
	}
	var engineMs float64
	for _, row := range lf.Budget {
		if strings.HasPrefix(row.Stage, "engine.Run") {
			engineMs = row.Ms
		}
	}
	var out strings.Builder
	out.WriteString("| stage | layer | ms per session | share of engine.Run |\n|---|---|---:|---:|\n")
	for _, row := range lf.Budget {
		fmt.Fprintf(&out, "| %s | %s | %.3f | %.1f %% |\n", row.Stage, row.Layer, row.Ms, 100*row.Ms/engineMs)
	}
	fmt.Print("\nwhere a what-if session's time goes (one worker, sample of the whatif-campaign corpus):\n\n" + out.String())
	return os.WriteFile(filepath.Join(outDir, "budget.md"), []byte(out.String()), 0o644)
}
