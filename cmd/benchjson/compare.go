package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// Compare mode turns benchjson from a recorder into a gate: given the
// previous run's summary and the current one, it fails (exit 1) when a
// benchmark regressed beyond tolerance or disappeared entirely.
//
//	benchjson -compare BENCH_5.json -alloc-tolerance 0.25 BENCH_6.json
//
// One metric is gated: allocs/op, which is deterministic for a given
// toolchain. Its tolerance (-alloc-tolerance, default 0) is a fraction
// of the baseline plus a +1 absolute grace, so a 0→1 alloc change on a
// tiny benchmark does not read as an infinite ratio. ns/op is printed
// in the delta table but never gated: the baseline is recorded on
// different hardware at -benchtime=3x, and a bound loose enough to
// survive that gates nothing (timing is bench/'s job, parent against
// change on one machine). Benchmarks new in the current run pass
// (there is nothing to compare against); benchmarks missing from the
// current run fail — a silently dropped benchmark is how a gate rots.

// regression is one gate violation.
type regression struct {
	Benchmark string  // package-qualified name
	Metric    string  // "allocs/op" or "missing"
	Old, New  float64 // measured values (0 for "missing")
	Limit     float64 // the threshold New had to stay under
}

func (r regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: present in baseline, missing from new run", r.Benchmark)
	}
	return fmt.Sprintf("%s: %s %.6g -> %.6g (limit %.6g, +%.1f%%)",
		r.Benchmark, r.Metric, r.Old, r.New, r.Limit, (r.New/r.Old-1)*100)
}

func benchKey(b Benchmark) string {
	if b.Package == "" {
		return b.Name
	}
	return b.Package + "." + b.Name
}

// compareSummaries gates newSum against oldSum and returns every
// violation, sorted by benchmark then metric for deterministic output.
func compareSummaries(oldSum, newSum *Summary, allocTol float64) []regression {
	byKey := make(map[string]Benchmark, len(newSum.Benchmarks))
	for _, b := range newSum.Benchmarks {
		byKey[benchKey(b)] = b
	}
	var regs []regression
	for _, old := range oldSum.Benchmarks {
		key := benchKey(old)
		cur, ok := byKey[key]
		if !ok {
			regs = append(regs, regression{Benchmark: key, Metric: "missing"})
			continue
		}
		// allocs/op: fractional tolerance plus one whole allocation of
		// absolute grace (so tiny baselines aren't gated on ±1).
		allocLimit := old.AllocsPerOp*(1+allocTol) + 1
		if cur.AllocsPerOp > allocLimit {
			regs = append(regs, regression{key, "allocs/op", old.AllocsPerOp, cur.AllocsPerOp, allocLimit})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Benchmark != regs[j].Benchmark {
			return regs[i].Benchmark < regs[j].Benchmark
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs
}

// writeDeltaTable renders the full per-benchmark comparison — every
// benchmark in either summary, not just the violations — so a CI log
// answers "how much did things move?" even when the gate passes.
// Columns: old/new ns/op with percent change, old/new allocs/op with
// percent change, and a status ("ok", "REGRESSION", "missing" for
// baseline benchmarks gone from the new run, "new" for benchmarks
// without a baseline). Rows sort by package-qualified name.
func writeDeltaTable(w io.Writer, oldSum, newSum *Summary, regs []regression) {
	oldBy := make(map[string]Benchmark, len(oldSum.Benchmarks))
	for _, b := range oldSum.Benchmarks {
		oldBy[benchKey(b)] = b
	}
	newBy := make(map[string]Benchmark, len(newSum.Benchmarks))
	for _, b := range newSum.Benchmarks {
		newBy[benchKey(b)] = b
	}
	keys := make([]string, 0, len(oldBy)+len(newBy))
	for k := range oldBy {
		keys = append(keys, k)
	}
	for k := range newBy {
		if _, dup := oldBy[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	regressed := make(map[string]bool, len(regs))
	missing := make(map[string]bool)
	for _, r := range regs {
		if r.Metric == "missing" {
			missing[r.Benchmark] = true
		} else {
			regressed[r.Benchmark] = true
		}
	}
	pct := func(old, cur float64) string {
		if old == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", (cur/old-1)*100)
	}

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\told ns/op\tnew ns/op\tdelta\told allocs/op\tnew allocs/op\tdelta\tstatus")
	for _, k := range keys {
		old, haveOld := oldBy[k]
		cur, haveNew := newBy[k]
		switch {
		case !haveNew:
			fmt.Fprintf(tw, "%s\t%.6g\t-\t-\t%.6g\t-\t-\tmissing\n", k, old.NsPerOp, old.AllocsPerOp)
		case !haveOld:
			fmt.Fprintf(tw, "%s\t-\t%.6g\t-\t-\t%.6g\t-\tnew\n", k, cur.NsPerOp, cur.AllocsPerOp)
		default:
			status := "ok"
			if regressed[k] {
				status = "REGRESSION"
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%s\t%.6g\t%.6g\t%s\t%s\n",
				k, old.NsPerOp, cur.NsPerOp, pct(old.NsPerOp, cur.NsPerOp),
				old.AllocsPerOp, cur.AllocsPerOp, pct(old.AllocsPerOp, cur.AllocsPerOp), status)
		}
	}
	tw.Flush()
}

func readSummary(path string) (*Summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sum Summary
	if err := json.Unmarshal(b, &sum); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sum.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in summary", path)
	}
	return &sum, nil
}

// runCompare loads both summaries, prints every violation to stderr,
// and exits 1 if there are any.
func runCompare(oldPath, newPath string, allocTol float64) {
	oldSum, err := readSummary(oldPath)
	if err != nil {
		fatal(err)
	}
	newSum, err := readSummary(newPath)
	if err != nil {
		fatal(err)
	}
	regs := compareSummaries(oldSum, newSum, allocTol)
	// The full delta table prints either way: a passing gate should
	// still show how much every benchmark moved.
	writeDeltaTable(os.Stderr, oldSum, newSum, regs)
	if len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", r)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) against %s (tolerance allocs/op +%.0f%% +1)\n",
			len(regs), oldPath, allocTol*100)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) within tolerance of %s\n",
		len(oldSum.Benchmarks), oldPath)
}
