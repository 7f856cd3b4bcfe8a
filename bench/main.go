// Command bench is the Veritas benchmark: five named workloads, the
// end-to-end metrics a user of the system sees, and — from a separate
// traced run — a per-layer ledger. BENCHMARK.json at the repository
// root names every workload and metric it prints; README.md says why
// each was chosen and what it should move.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one measured run, result as the last stdout line
//	bash bench/run.sh [--trace 1] [--out FILE]                        every workload, each repetition in a fresh process
//	bash bench/run.sh -compare a.json b.json                          two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sizes are the workload sizes. frozen was calibrated once on the
// 2-core reference box at the commit that added the benchmark and is
// what every reported number uses; tiny only keeps bench_test.go fast.
type sizes struct {
	setups int // how often set-up is repeated in a run (setup_s is their median)

	campaignSessions int // whatif-campaign: sessions per scenario
	campaignChunks   int // chunks per session (0 = the full 10-minute clip)
	refSessions      int // sessions per scenario in the worker-count reference
	logsPerScenario  int // interventional: recorded sessions per scenario
	prefixes         []int

	seedSessions int // real engine sessions per scenario that the synthetic rows are cloned from
	seedChunks   int
	storeRows    int     // query-read: rows in the corpus store
	openRate     float64 // query-read phase B: requests per second
	catchupRows  int     // live-ingest phase A
	ingestRate   float64 // live-ingest phase B: rows per second
	maintRows    int     // corpus-maint: rows per pass
	maintGets    int

	ledgerCalls  int // calls behind each per-layer time
	ledgerRows   int // rows in the ledger's store measurements
	ledgerSeries int // sessions in the ledger's engine measurements
}

var frozen = sizes{
	setups:           9,
	campaignSessions: 8,
	campaignChunks:   0,
	refSessions:      10,
	logsPerScenario:  25,
	prefixes:         []int{60, 120, 180, 240, 300},
	seedSessions:     10,
	seedChunks:       60,
	storeRows:        4000,
	openRate:         1000,
	catchupRows:      1000,
	ingestRate:       400,
	maintRows:        1000,
	maintGets:        500,
	ledgerCalls:      30,
	ledgerRows:       1000,
	ledgerSeries:     20,
}

var tiny = sizes{
	setups:           1,
	campaignSessions: 2,
	campaignChunks:   30,
	refSessions:      1,
	logsPerScenario:  2,
	prefixes:         []int{10, 30},
	seedSessions:     1,
	seedChunks:       20,
	storeRows:        64,
	openRate:         1000,
	catchupRows:      40,
	ingestRate:       100,
	maintRows:        80,
	maintGets:        40,
	ledgerCalls:      2,
	ledgerRows:       64,
	ledgerSeries:     4,
}

// workload is one named set of inputs. alias is the name the issue
// that defined the benchmark gave this workload's throughput.
type workload struct {
	name  string
	alias string
	unit  string // what throughput_per_s counts here
	run   func(*run) error
}

var workloads = []workload{
	{"whatif-campaign", "sessions_per_s", "sessions", runWhatif},
	{"interventional", "sessions_per_s", "prefix queries", runInterventional},
	{"query-read", "requests_per_s", "requests (phase A)", runQueryRead},
	{"live-ingest", "requests_per_s", "requests (phase B)", runLiveIngest},
	{"corpus-maint", "rows_per_s", "row-stages", runCorpusMaint},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run is one execution of one workload: its inputs and what it
// measured.
type run struct {
	sz      sizes
	seed    int64
	budget  time.Duration // how long the timed phases measure
	workers int           // min(nproc, 4): never more load-generating goroutines than this
	dir     string        // scratch directory, inside the checkout
	rec     *recorder     // nil in the untraced run
	root    *span

	setup     []float64            // seconds per set-up
	rates     []float64            // units of work per second, one per measurement unit (a pass, a time window)
	ops       float64              // units of work the timed phases completed
	wall      float64              // seconds the timed phases took
	lat       map[string][]float64 // per-operation latency in ms, by class of operation (endpoint), each in completion order
	attempted int
	failed    int
	problems  []string
	digest    string             // SHA-256 of the workload's report
	info      map[string]float64 // measurements beside the end-to-end set
}

// fail records a failed operation or check; it counts against the run
// (failed/attempted) and makes the result incorrect.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func loadWorkers() int { return min(runtime.NumCPU(), 4) }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// also is what a run prints on the line before, after "also ": its
// output digest and, from an untraced run, the demoted metrics. The
// suite reads it; the driver reads the last line only.
type also struct {
	Digest  string            `json:"digest"`
	Metrics map[string]metric `json:"metrics,omitempty"`
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// endToEnd is the gated end-to-end set: the two metrics that repeat on
// the reference box within a bound worth having. setup_s is the median
// over the run's set-ups.
func (r *run) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":     {median(r.setup), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// demoted is the rest of what a user sees, measured the same way and in
// wall-clock time, but reported without a bound under an e2e. prefix
// (README.md, Steadiness, says why): the box's speed moves by a third
// between quarters of an hour, and a gate that trips on that is worse
// than none. Each is a median over many small units of the run —
// passes or request blocks, consecutive windows of the latency series —
// so that a burst of stolen CPU moves a few units, not the value.
func (r *run) demoted() map[string]metric {
	return map[string]metric{
		"e2e.throughput_per_s": {median(r.rates), "1/s"},
		"e2e.latency_p50_ms":   {r.latency(50), "ms"},
		"e2e.latency_p99_ms":   {r.latency(99), "ms"},
	}
}

const latencyWindows = 4

// latency is the run's p-th percentile latency: every class of
// operation's own percentile, weighted by the class's share of the
// operations. The serving tier's classes differ tenfold in cost, so a
// percentile of the blended series sits on the border between two
// classes and moves with the draw of the mix; this one moves when a
// class does. With one class it is that class's percentile.
func (r *run) latency(p float64) float64 {
	var sum, n float64
	for _, lat := range r.lat {
		sum += float64(len(lat)) * windowed(lat, latencyWindows, p)
		n += float64(len(lat))
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// execute runs one workload once in this process.
func execute(w workload, sz sizes, seed int64, budget time.Duration, outDir string, traced bool) (*run, result, error) {
	scratch, err := os.MkdirTemp(outDir, "tmp-"+w.name+"-")
	if err != nil {
		return nil, result{}, err
	}
	defer os.RemoveAll(scratch)
	r := &run{sz: sz, seed: seed, budget: budget, workers: loadWorkers(), dir: scratch, info: map[string]float64{}, lat: map[string][]float64{}}
	res := result{}
	if !traced {
		if err := w.run(r); err != nil {
			return r, res, err
		}
		res.Metrics = r.endToEnd()
	} else {
		m, err := tracedRun(w, r, outDir)
		if err != nil {
			return r, res, err
		}
		res.Metrics = m
	}
	res.Correct = r.failed == 0
	res.Attempted = r.attempted
	res.Failed = r.failed
	return r, res, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload once in this process (empty: the whole suite)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 0, "how long one run's timed phases measure (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		out     = flag.String("out", "", "suite: result file (default bench/out/results.json, or layers.json when traced)")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	outDir := filepath.Join("bench", "out")
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		os.Exit(compareFiles(spec, flag.Arg(0), flag.Arg(1)))
	case *name == "":
		os.Exit(suite(*seed, *seconds, *trace == 1, outDir, *out))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	r, res, err := execute(w, frozen, *seed, time.Duration(*seconds)*time.Second, outDir, *trace == 1)
	if err != nil {
		fatal(err)
	}
	extra := also{Digest: r.digest}
	if *trace != 1 {
		extra.Metrics = r.demoted()
	}
	report(os.Stderr, w, r, res, extra)
	for _, v := range []struct {
		prefix string
		line   any
	}{{"also ", extra}, {"", res}} {
		b, err := json.Marshal(v.line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(v.prefix + string(b))
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// report prints every metric of one run by name with its unit, the
// sample counts behind the latencies, and any failed check.
func report(w *os.File, wl workload, r *run, res result, extra also) {
	fmt.Fprintf(w, "== %s (seed %d, %v, %d workers) ==\n", wl.name, r.seed, r.budget, r.workers)
	for _, set := range []map[string]metric{res.Metrics, extra.Metrics} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			note := ""
			if n == "e2e.throughput_per_s" {
				q1, q3 := quartiles(r.rates)
				note = fmt.Sprintf("  (%s: median of %d units, quartiles %.6g and %.6g; in all %.0f %s in %.3f s = %.6g /s)", wl.alias, len(r.rates), q1, q3, r.ops, wl.unit, r.wall, r.ops/r.wall)
			}
			if n == "setup_s" {
				note = fmt.Sprintf("  (median of %d set-ups: %.4g)", len(r.setup), r.setup)
			}
			fmt.Fprintf(w, "%-42s %14.6g %s%s\n", n, set[n].Value, set[n].Unit, note)
		}
	}
	classes := make([]string, 0, len(r.lat))
	var all []float64
	for c, lat := range r.lat {
		classes = append(classes, c)
		all = append(all, lat...)
	}
	sort.Strings(classes)
	if len(all) > 0 {
		tp := tailPercentile(len(all))
		fmt.Fprintf(w, "latency: %d samples; p%.4g = %.6g ms is the highest percentile with ten samples beyond it\n", len(all), tp, percentile(all, tp))
	}
	// The tier serves endpoint classes of very different cost; one
	// blended number hides which class a change moved.
	for _, c := range classes {
		fmt.Fprintf(w, "latency of %-20s %6d samples  p50 %10.6g ms  p99 %10.6g ms\n", c, len(r.lat[c]), percentile(r.lat[c], 50), percentile(r.lat[c], 99))
	}
	info := make([]string, 0, len(r.info))
	for n := range r.info {
		info = append(info, n)
	}
	sort.Strings(info)
	for _, n := range info {
		fmt.Fprintf(w, "info %-37s %14.6g\n", n, r.info[n])
	}
	fmt.Fprintf(w, "attempted %d, failed %d (failed_ratio %.6g)\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
}
