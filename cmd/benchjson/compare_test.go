package main

import (
	"bytes"
	"strings"
	"testing"
)

func sum(benches ...Benchmark) *Summary {
	return &Summary{Benchmarks: benches}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	old := sum(
		Benchmark{Package: "veritas", Name: "BenchmarkFleet", NsPerOp: 1000, AllocsPerOp: 10},
		Benchmark{Package: "veritas", Name: "BenchmarkStore", NsPerOp: 500},
	)
	cur := sum(
		Benchmark{Package: "veritas", Name: "BenchmarkFleet", NsPerOp: 1150, AllocsPerOp: 11},
		Benchmark{Package: "veritas", Name: "BenchmarkStore", NsPerOp: 400},
	)
	if regs := compareSummaries(old, cur, 0.0); len(regs) != 0 {
		t.Fatalf("expected clean comparison, got %v", regs)
	}
}

func TestCompareAllocGrace(t *testing.T) {
	// 0 -> 1 alloc is inside the +1 absolute grace.
	old := sum(Benchmark{Name: "BenchmarkTiny", NsPerOp: 10, AllocsPerOp: 0})
	cur := sum(Benchmark{Name: "BenchmarkTiny", NsPerOp: 10, AllocsPerOp: 1})
	if regs := compareSummaries(old, cur, 0.0); len(regs) != 0 {
		t.Fatalf("+1 alloc on a zero baseline should pass, got %v", regs)
	}
	// 10 -> 12 with zero fractional tolerance exceeds the limit of 11.
	old = sum(Benchmark{Name: "BenchmarkBig", NsPerOp: 10, AllocsPerOp: 10})
	cur = sum(Benchmark{Name: "BenchmarkBig", NsPerOp: 10, AllocsPerOp: 12})
	regs := compareSummaries(old, cur, 0.0)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("expected one allocs/op regression, got %v", regs)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	old := sum(
		Benchmark{Package: "veritas", Name: "BenchmarkFleet", NsPerOp: 1000},
		Benchmark{Package: "veritas", Name: "BenchmarkGone", NsPerOp: 1000},
	)
	cur := sum(Benchmark{Package: "veritas", Name: "BenchmarkFleet", NsPerOp: 1000})
	regs := compareSummaries(old, cur, 0.0)
	if len(regs) != 1 || regs[0].Metric != "missing" || regs[0].Benchmark != "veritas.BenchmarkGone" {
		t.Fatalf("expected one missing-benchmark failure, got %v", regs)
	}
}

func TestCompareNewBenchmarkIgnored(t *testing.T) {
	old := sum(Benchmark{Name: "BenchmarkFleet", NsPerOp: 1000})
	cur := sum(
		Benchmark{Name: "BenchmarkFleet", NsPerOp: 1000},
		Benchmark{Name: "BenchmarkBrandNew", NsPerOp: 1e9, AllocsPerOp: 1e6},
	)
	if regs := compareSummaries(old, cur, 0.0); len(regs) != 0 {
		t.Fatalf("new benchmarks have no baseline and must pass, got %v", regs)
	}
}

func TestCompareDeterministicOrder(t *testing.T) {
	old := sum(
		Benchmark{Name: "BenchmarkB", NsPerOp: 100, AllocsPerOp: 10},
		Benchmark{Name: "BenchmarkGone", NsPerOp: 100},
		Benchmark{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 10},
	)
	cur := sum(
		Benchmark{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100},
		Benchmark{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100},
	)
	regs := compareSummaries(old, cur, 0.0)
	if len(regs) != 3 {
		t.Fatalf("expected 3 regressions, got %v", regs)
	}
	if regs[0].Benchmark != "BenchmarkA" || regs[1].Benchmark != "BenchmarkB" || regs[2].Metric != "missing" {
		t.Errorf("regressions not sorted by benchmark: %v", regs)
	}
	// A tenfold ns/op blowup is reported in the table, never gated.
	for _, r := range regs {
		if r.Metric == "ns/op" {
			t.Errorf("ns/op gated: %v", r)
		}
	}
}

func TestDeltaTablePrintsEveryBenchmark(t *testing.T) {
	old := sum(
		Benchmark{Package: "veritas", Name: "BenchmarkFleet", NsPerOp: 1000, AllocsPerOp: 10},
		Benchmark{Package: "veritas", Name: "BenchmarkGone", NsPerOp: 50, AllocsPerOp: 5},
	)
	cur := sum(
		Benchmark{Package: "veritas", Name: "BenchmarkFleet", NsPerOp: 1500, AllocsPerOp: 15},
		Benchmark{Package: "veritas", Name: "BenchmarkNew", NsPerOp: 20, AllocsPerOp: 2},
	)
	regs := compareSummaries(old, cur, 0.0)
	var buf bytes.Buffer
	writeDeltaTable(&buf, old, cur, regs)
	out := buf.String()

	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 benchmarks
		t.Fatalf("delta table has %d lines, want 4:\n%s", len(lines), out)
	}
	for _, want := range []string{
		"old ns/op", "new ns/op", "old allocs/op", // header
		"veritas.BenchmarkFleet", "+50.0%", "REGRESSION",
		"veritas.BenchmarkGone", "missing",
		"veritas.BenchmarkNew", "new",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("delta table missing %q:\n%s", want, out)
		}
	}
	// Rows sort by name: Fleet, Gone, New after the header.
	if !(strings.Index(out, "BenchmarkFleet") < strings.Index(out, "BenchmarkGone") &&
		strings.Index(out, "BenchmarkGone") < strings.Index(out, "BenchmarkNew")) {
		t.Errorf("delta table rows not sorted:\n%s", out)
	}
}

func TestDeltaTableWithinTolerance(t *testing.T) {
	// The table prints even when nothing regressed, with every row "ok"
	// and real percentages.
	old := sum(Benchmark{Name: "BenchmarkSteady", NsPerOp: 1000, AllocsPerOp: 8})
	cur := sum(Benchmark{Name: "BenchmarkSteady", NsPerOp: 950, AllocsPerOp: 8})
	var buf bytes.Buffer
	writeDeltaTable(&buf, old, cur, nil)
	out := buf.String()
	for _, want := range []string{"BenchmarkSteady", "-5.0%", "+0.0%", "ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("delta table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "REGRESSION") {
		t.Errorf("clean comparison shows a REGRESSION row:\n%s", out)
	}
}
