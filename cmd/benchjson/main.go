// Command benchjson converts `go test -bench` output into a
// machine-readable benchmark summary — the artifact CI tracks so the
// repository's performance trajectory accumulates run over run.
//
// It accepts either plain `go test -bench` text or the `-json`
// (test2json) event stream on stdin, extracts every benchmark result
// line, and writes a deterministic JSON document (benchmarks sorted by
// package and name) with ns/op, B/op, allocs/op and MB/s per
// benchmark:
//
//	go test -run xxx -bench=. -benchtime=3x -benchmem -json ./... \
//	    | benchjson -out BENCH_5.json
//
// benchjson fails (non-zero exit) only on parse problems — a result
// line it cannot decode, no benchmarks at all, or a package-level test
// failure in the stream — never on the numbers themselves: regression
// gating is the -compare mode's job; this stage only guarantees the
// trajectory data exists and is well-formed.
//
// With -compare, benchjson is the gate instead: it reads two summaries
// it previously wrote and exits non-zero when the new run regressed
// beyond tolerance (see compare.go):
//
//	benchjson -compare BENCH_5.json BENCH_6.json -alloc-tolerance 0.25
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's measured result.
type Benchmark struct {
	Package     string  `json:"package,omitempty"`
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
}

// Summary is the document benchjson emits.
type Summary struct {
	GoVersion  string      `json:"go_version"`
	GoOS       string      `json:"goos"`
	GoArch     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// event is the subset of a test2json record benchjson reads.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// benchLine matches a benchmark result line:
//
//	BenchmarkFleet/cache=on-8   3   123456 ns/op   42 B/op   7 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// metric matches one trailing "<value> <unit>" pair after ns/op.
var metric = regexp.MustCompile(`([\d.]+) (B/op|allocs/op|MB/s)`)

func parseLine(pkg, line string) (Benchmark, bool, error) {
	m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		if strings.HasPrefix(line, "Benchmark") && strings.Contains(line, "ns/op") {
			return Benchmark{}, false, fmt.Errorf("unparseable benchmark line: %q", line)
		}
		return Benchmark{}, false, nil
	}
	b := Benchmark{Package: pkg, Name: m[1]}
	var err error
	if m[2] != "" {
		if b.Procs, err = strconv.Atoi(m[2]); err != nil {
			return Benchmark{}, false, fmt.Errorf("%q: procs: %w", line, err)
		}
	}
	if b.Runs, err = strconv.Atoi(m[3]); err != nil {
		return Benchmark{}, false, fmt.Errorf("%q: runs: %w", line, err)
	}
	if b.NsPerOp, err = strconv.ParseFloat(m[4], 64); err != nil {
		return Benchmark{}, false, fmt.Errorf("%q: ns/op: %w", line, err)
	}
	for _, mm := range metric.FindAllStringSubmatch(m[5], -1) {
		v, err := strconv.ParseFloat(mm[1], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("%q: %s: %w", line, mm[2], err)
		}
		switch mm[2] {
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		case "MB/s":
			b.MBPerS = v
		}
	}
	return b, true, nil
}

// parse consumes bench output (plain or test2json) and returns the
// summary. A test2json "fail" action is an error: a bench run that
// failed must not produce a quietly truncated trajectory point.
//
// test2json splits a benchmark's line across output events (the name
// flushes when the benchmark starts, the timings when it finishes), so
// events are reassembled into whole lines per package before parsing.
func parse(r io.Reader) (*Summary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	sum := &Summary{GoVersion: runtime.Version(), GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
	var failed []string
	partial := make(map[string]string) // package -> unterminated output
	handle := func(pkg, line string) error {
		b, ok, err := parseLine(pkg, line)
		if err != nil {
			return err
		}
		if ok {
			sum.Benchmarks = append(sum.Benchmarks, b)
		}
		return nil
	}
	for sc.Scan() {
		raw := sc.Text()
		if !strings.HasPrefix(raw, "{") {
			// Plain-text mode: a package summary line ("FAIL\t<pkg>...",
			// or a bare "FAIL") marks the run failed, same as a test2json
			// fail action — the summary must not quietly truncate.
			if raw == "FAIL" || strings.HasPrefix(raw, "FAIL\t") || strings.HasPrefix(raw, "FAIL ") {
				pkg := strings.TrimSpace(strings.TrimPrefix(raw, "FAIL"))
				if i := strings.IndexAny(pkg, " \t"); i >= 0 {
					pkg = pkg[:i]
				}
				if pkg == "" {
					pkg = "(unknown)"
				}
				failed = append(failed, pkg)
			}
			if err := handle("", raw); err != nil {
				return nil, err
			}
			continue
		}
		var ev event
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			return nil, fmt.Errorf("malformed test2json line: %q: %w", raw, err)
		}
		if ev.Action == "fail" && ev.Output == "" {
			failed = append(failed, ev.Package)
		}
		if ev.Action != "output" {
			continue
		}
		buf := partial[ev.Package] + ev.Output
		for {
			line, rest, found := strings.Cut(buf, "\n")
			if !found {
				break
			}
			buf = rest
			if err := handle(ev.Package, line); err != nil {
				return nil, err
			}
		}
		partial[ev.Package] = buf
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for pkg, rest := range partial {
		if err := handle(pkg, rest); err != nil {
			return nil, err
		}
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("bench run failed in package(s): %s", strings.Join(failed, ", "))
	}
	if len(sum.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark results found in the input")
	}
	sort.Slice(sum.Benchmarks, func(i, j int) bool {
		a, b := sum.Benchmarks[i], sum.Benchmarks[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Name < b.Name
	})
	return sum, nil
}

func main() {
	out := flag.String("out", "", "write the summary here (default stdout)")
	compare := flag.String("compare", "", "baseline summary JSON; gate the new summary (positional arg) against it")
	allocTol := flag.Float64("alloc-tolerance", 0.0, "allocs/op regression tolerance as a fraction of baseline (+1 alloc absolute grace)")
	flag.Parse()
	args := flag.Args()
	// flag stops at the first positional, so the documented shape
	// `-compare old.json new.json -alloc-tolerance 0.25` leaves trailing flags
	// in Args; re-parse everything after the one expected positional.
	if len(args) > 1 {
		rest := args[1:]
		args = args[:1]
		flag.CommandLine.Parse(rest)
	}

	if *compare != "" {
		if len(args) != 1 {
			fatal(fmt.Errorf("usage: benchjson -compare OLD.json NEW.json [-alloc-tolerance F]"))
		}
		runCompare(*compare, args[0], *allocTol)
		return
	}
	if len(args) != 0 {
		fatal(fmt.Errorf("unexpected arguments %v (summaries are read from stdin; did you mean -compare?)", args))
	}

	sum, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) -> %s\n", len(sum.Benchmarks), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
