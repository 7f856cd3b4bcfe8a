// Command veritas runs the paper's single-session workflow, one step per
// subcommand; a bad invocation exits 2, any other failure 1.
//
//	veritas tracegen -seed 7 > trace.txt                  # a bandwidth trace
//	veritas sessionrun -trace trace.txt > session.json    # stream over it, log the session
//	veritas abduct -log session.json -out inferred/ -k 5  # posterior samples of the bandwidth
//	veritas whatif -log session.json -abr bba -buffer 30  # replay a changed setting over them
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"veritas"
	"veritas/internal/player"
	"veritas/internal/trace"
)

// Each subcommand parses its own arguments and writes its output to
// stdout; the error it returns is run's to report.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"tracegen":   tracegen,
	"sessionrun": sessionrun,
	"abduct":     abduct,
	"whatif":     whatif,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches args[0] and maps its error onto the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || subcommands[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: veritas tracegen|sessionrun|abduct|whatif [flags]")
		return 2
	}
	err := subcommands[args[0]](args[1:], stdout, stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintf(stderr, "veritas %s: %v\n", args[0], err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// usageError marks a bad invocation (exit status 2).
type usageError struct{ error }

func (u usageError) Unwrap() error { return u.error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// opts holds the flags several subcommands share, at their defaults
// unless a subcommand registers and sets them.
type opts struct {
	fs          *flag.FlagSet
	seed        int64
	k           int
	buffer      float64
	ladder, abr string
}

// newOpts returns subcommand name's flag set carrying the shared flags
// it takes: any of "seed", "k", "buffer", "ladder" and "abr".
func newOpts(name string, stderr io.Writer, shared ...string) *opts {
	// k: 5 is the paper's K, the facade's default (what -k 0 also selects).
	o := &opts{fs: flag.NewFlagSet("veritas "+name, flag.ContinueOnError),
		seed: 1, k: 5, buffer: player.DefaultBufferCap, ladder: "default", abr: "mpc"}
	o.fs.SetOutput(stderr)
	for _, f := range shared {
		switch f {
		case "seed":
			o.fs.Int64Var(&o.seed, f, o.seed, "seed (tracegen: trace i uses seed+i; sessionrun: video and jitter; else sampling)")
		case "k":
			o.fs.IntVar(&o.k, f, o.k, "number of posterior samples (0 = the default)")
		case "buffer":
			o.fs.Float64Var(&o.buffer, f, o.buffer, "player buffer capacity in seconds (whatif: Setting B's)")
		case "ladder":
			o.fs.StringVar(&o.ladder, f, o.ladder, "quality ladder: default or higher")
		case "abr":
			o.fs.StringVar(&o.abr, f, o.abr, "ABR algorithm: mpc, bba, bola, festive (sessionrun also: random, fixed:<q>)")
		}
	}
	return o
}

// parse parses args and checks the shared flags' ranges before any work.
func (o *opts) parse(args []string) error {
	if err := o.fs.Parse(args); err != nil {
		return usageError{err} // -h included: run maps flag.ErrHelp to 0
	}
	if o.k < 0 {
		return usagef("-k %d: want at least 0", o.k)
	}
	if o.buffer == 0 { // the facade reads 0 as the default; here it is no buffer at all
		return errors.New("-buffer 0 must exceed one chunk duration")
	}
	return nil
}

// video synthesizes the clip on the rung set -ladder names.
func (o *opts) video() (*veritas.Video, error) {
	switch o.ladder {
	case "default":
		return veritas.DefaultVideo(o.seed), nil
	case "higher":
		return veritas.HigherQualityVideo(o.seed), nil
	}
	return nil, usagef("unknown ladder %q (want default or higher)", o.ladder)
}

// read decodes the file the named flag gives; the flag is required.
func read[T any](flagName, path string, decode func(io.Reader) (T, error)) (v T, err error) {
	if path == "" {
		return v, usagef("-%s is required", flagName)
	}
	f, err := os.Open(path)
	if err != nil {
		return v, err
	}
	defer f.Close()
	return decode(f)
}

// writeTraces writes each trace to dir/<its name>, creating dir.
func writeTraces(dir string, files map[string]*veritas.Trace, encode func(*veritas.Trace, io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, tr := range files {
		var buf bytes.Buffer
		if err := encode(tr, &buf); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o666); err != nil {
			return err
		}
	}
	return nil
}

// tracegen writes synthetic FCC-like bandwidth traces as "<time> <mbps>"
// text or an mm-link packet schedule: one to stdout, or -n to -out.
func tracegen(args []string, stdout, stderr io.Writer) error {
	o, cfg := newOpts("tracegen", stderr, "seed"), veritas.DefaultTraceConfig(1)
	n := o.fs.Int("n", 1, "number of traces to generate")
	out := o.fs.String("out", "", "output directory (default: single trace to stdout)")
	o.fs.Float64Var(&cfg.MinMbps, "min", cfg.MinMbps, "minimum bandwidth (Mbps)")
	o.fs.Float64Var(&cfg.MaxMbps, "max", cfg.MaxMbps, "maximum bandwidth (Mbps)")
	o.fs.Float64Var(&cfg.Horizon, "horizon", cfg.Horizon, "trace length (seconds)")
	o.fs.Float64Var(&cfg.StepMbps, "step", cfg.StepMbps, "max per-interval drift (Mbps)")
	o.fs.Float64Var(&cfg.JumpProb, "jump", cfg.JumpProb, "regime-jump probability per interval")
	o.fs.Float64Var(&cfg.Interval, "interval", cfg.Interval, "seconds per bandwidth step")
	format := o.fs.String("format", "text", "output format: text or mahimahi (mm-link packet schedule)")
	if err := o.parse(args); err != nil {
		return err
	}
	encode := (*veritas.Trace).Encode
	switch {
	case *format != "text" && *format != "mahimahi":
		return usagef("unknown format %q", *format)
	case *n < 1:
		return usagef("-n %d: want at least 1", *n)
	case *format == "mahimahi":
		encode = func(tr *veritas.Trace, w io.Writer) error { return tr.EncodeMahimahi(w, cfg.Horizon) }
	}
	cfg.Seed = o.seed
	traces, err := veritas.GenerateTraceSet(cfg, *n)
	switch {
	case err != nil:
		return err
	case *out == "" && *n != 1:
		return usagef("-n > 1 requires -out")
	case *out == "":
		return encode(traces[0], stdout)
	}
	files := make(map[string]*veritas.Trace, len(traces))
	for i, tr := range traces {
		files[fmt.Sprintf("trace_%04d.txt", i)] = tr
	}
	if err := writeTraces(*out, files, encode); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d traces to %s\n", len(traces), *out)
	return nil
}

// sessionrun streams a video over a bandwidth trace and writes the
// session log as JSON: the observables a deployed system records.
func sessionrun(args []string, stdout, stderr io.Writer) error {
	o := newOpts("sessionrun", stderr, "abr", "buffer", "ladder", "seed")
	tracePath := o.fs.String("trace", "", "bandwidth trace file (required)")
	chunks := o.fs.Int("chunks", 0, "limit session length in chunks (0 = full video)")
	rtt := o.fs.Float64("rtt", 0.160, "round-trip time (seconds)")
	if err := o.parse(args); err != nil {
		return err
	}
	tr, err := read("trace", *tracePath, trace.Decode)
	if err != nil {
		return err
	}
	vid, err := o.video()
	if err != nil {
		return err
	}
	var alg veritas.ABR
	if rung, fixed := strings.CutPrefix(o.abr, "fixed:"); fixed {
		q, err := strconv.Atoi(rung)
		if err != nil || q < 0 || q >= vid.NumQualities() {
			return usagef("-abr %s: want fixed:<q> with q in 0..%d on the %s ladder", o.abr, vid.NumQualities()-1, o.ladder)
		}
		alg = veritas.NewFixedABR(q)
	} else if o.abr == "random" {
		alg = veritas.NewRandomABR(o.seed)
	} else if alg, err = veritas.NewABR(o.abr); err != nil {
		return usagef("unknown ABR %q (want mpc, bba, bola, festive, random, fixed:<q>)", o.abr)
	}
	net := veritas.DefaultNetwork()
	net.RTT, net.Seed = *rtt, o.seed
	s, err := veritas.RunSession(veritas.SessionConfig{
		Trace: tr, ABR: alg, Video: vid, Net: &net, BufferCap: o.buffer, MaxChunks: *chunks})
	if err != nil {
		return err
	}
	if err := player.EncodeLog(stdout, s.Log); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "session: %d chunks, SSIM %.4f, rebuffering %.2f%%, avg bitrate %.2f Mbps\n",
		s.Metrics.NumChunks, s.Metrics.AvgSSIM, s.Metrics.RebufRatio*100, s.Metrics.AvgBitrateMbps)
	return nil
}

// abduct infers the posterior over a session's latent bandwidth and
// writes its K samples and most likely trace to -out, or the Baseline
// or most likely trace alone to stdout.
func abduct(args []string, stdout, stderr io.Writer) error {
	o := newOpts("abduct", stderr, "k", "seed")
	logPath := o.fs.String("log", "", "session log JSON (required)")
	out := o.fs.String("out", "", "output directory for sampled traces")
	baseline := o.fs.Bool("baseline", false, "write the Baseline trace to stdout instead")
	viterbi := o.fs.Bool("viterbi", false, "write the most-likely trace to stdout instead")
	if err := o.parse(args); err != nil {
		return err
	}
	log, err := read("log", *logPath, player.DecodeLog)
	if err != nil {
		return err
	}
	if *baseline {
		tr, err := veritas.Baseline(log)
		if err != nil {
			return err
		}
		return tr.Encode(stdout)
	}
	abd, err := veritas.Abduct(log, veritas.AbductionConfig{NumSamples: o.k, Seed: o.seed})
	switch {
	case err != nil:
		return err
	case *viterbi:
		return abd.MostLikelyTrace().Encode(stdout)
	case *out == "":
		return usagef("-out is required (or use -baseline/-viterbi)")
	}
	files := map[string]*veritas.Trace{"viterbi.txt": abd.MostLikelyTrace()}
	for i, tr := range abd.SampleTraces() {
		files[fmt.Sprintf("sample_%02d.txt", i)] = tr
	}
	if err := writeTraces(*out, files, (*veritas.Trace).Encode); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d samples + viterbi to %s\n", len(abd.SampleTraces()), *out)
	return nil
}

// whatif abduces a session's latent bandwidth and reports the quality
// the changed setting would have achieved, beside the Baseline estimate
// and, given the true trace, the oracle.
func whatif(args []string, stdout, stderr io.Writer) error {
	o := newOpts("whatif", stderr, "abr", "buffer", "ladder", "k", "seed")
	logPath := o.fs.String("log", "", "session log JSON (required)")
	truthPath := o.fs.String("truth", "", "optional true GTBW trace for an oracle row")
	if err := o.parse(args); err != nil {
		return err
	}
	log, err := read("log", *logPath, player.DecodeLog)
	if err != nil {
		return err
	}
	vid, err := o.video()
	if err != nil {
		return err
	}
	newABR := func() veritas.ABR { alg, _ := veritas.NewABR(o.abr); return alg }
	if newABR() == nil {
		return usagef("unknown ABR %q (want mpc, bba, bola, festive)", o.abr)
	}
	w := veritas.WhatIf{NewABR: newABR, Video: vid, BufferCap: o.buffer}
	abd, err := veritas.Abduct(log, veritas.AbductionConfig{NumSamples: o.k, Seed: o.seed})
	if err != nil {
		return err
	}
	out, err := veritas.Counterfactual(abd, w)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "what-if: abr=%s buffer=%.0fs ladder=%s (K=%d samples)\n\n", o.abr, o.buffer, o.ladder, len(abd.SampleTraces()))
	fmt.Fprintf(stdout, "%-16s %10s %10s %12s\n", "estimator", "SSIM", "rebuf %", "bitrate Mbps")
	row := func(name string, m veritas.Metrics) {
		fmt.Fprintf(stdout, "%-16s %10.4f %10.2f %12.2f\n", name, m.AvgSSIM, m.RebufRatio*100, m.AvgBitrateMbps)
	}
	if *truthPath != "" {
		gt, err := read("truth", *truthPath, trace.Decode)
		if err != nil {
			return err
		}
		m, err := veritas.Oracle(gt, w)
		if err != nil {
			return err
		}
		row("oracle (GTBW)", m)
	}
	row("baseline", out.Baseline)
	var lo, hi veritas.Metrics // the Veritas range: second-lowest and second-highest sample outcome
	lo.AvgSSIM, hi.AvgSSIM = out.SSIMRange()
	lo.RebufRatio, hi.RebufRatio = out.RebufRange()
	lo.AvgBitrateMbps, hi.AvgBitrateMbps = out.BitrateRange()
	row("veritas (low)", lo)
	row("veritas (high)", hi)
	return nil
}
