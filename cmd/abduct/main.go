// Command abduct runs Veritas's abduction on a session log: it infers
// the posterior over latent ground-truth bandwidth traces and writes the
// sampled traces (and optionally the Baseline estimate) as trace files.
//
// Usage:
//
//	abduct -log session.json -out inferred/ -k 5
//	abduct -log session.json -baseline > baseline.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"veritas/internal/abduction"
	"veritas/internal/player"
	"veritas/internal/trace"
)

func main() {
	var (
		logPath  = flag.String("log", "", "session log JSON (required)")
		out      = flag.String("out", "", "output directory for sampled traces")
		k        = flag.Int("k", 5, "number of posterior samples")
		seed     = flag.Int64("seed", 1, "sampling seed")
		baseline = flag.Bool("baseline", false, "write the Baseline trace to stdout instead")
		viterbi  = flag.Bool("viterbi", false, "write the most-likely trace to stdout instead")
	)
	flag.Parse()

	if *logPath == "" {
		fmt.Fprintln(os.Stderr, "abduct: -log is required")
		os.Exit(2)
	}
	f, err := os.Open(*logPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abduct:", err)
		os.Exit(1)
	}
	log, err := player.DecodeLog(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "abduct: decode log:", err)
		os.Exit(1)
	}

	if *baseline {
		tr, err := abduction.BaselineTrace(log)
		if err != nil {
			fmt.Fprintln(os.Stderr, "abduct:", err)
			os.Exit(1)
		}
		if err := tr.Encode(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "abduct:", err)
			os.Exit(1)
		}
		return
	}

	abd, err := abduction.Abduct(log, abduction.Config{NumSamples: *k, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "abduct:", err)
		os.Exit(1)
	}

	if *viterbi {
		if err := abd.MostLikelyTrace().Encode(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "abduct:", err)
			os.Exit(1)
		}
		return
	}

	if *out == "" {
		fmt.Fprintln(os.Stderr, "abduct: -out is required (or use -baseline/-viterbi)")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "abduct:", err)
		os.Exit(1)
	}
	for i, tr := range abd.SampleTraces() {
		if err := writeTrace(filepath.Join(*out, fmt.Sprintf("sample_%02d.txt", i)), tr); err != nil {
			fmt.Fprintln(os.Stderr, "abduct:", err)
			os.Exit(1)
		}
	}
	if err := writeTrace(filepath.Join(*out, "viterbi.txt"), abd.MostLikelyTrace()); err != nil {
		fmt.Fprintln(os.Stderr, "abduct:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d samples + viterbi to %s\n", *k, *out)
}

func writeTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
