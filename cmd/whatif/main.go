// Command whatif answers a counterfactual query end-to-end: given a
// session log from the deployed system, it abduces the latent bandwidth
// and reports the session quality the changed design would have
// achieved, alongside the Baseline estimate (and, when the true trace is
// supplied, the oracle).
//
// Usage:
//
//	whatif -log session.json -abr bba
//	whatif -log session.json -buffer 30 -truth trace.txt
//	whatif -log session.json -ladder higher
package main

import (
	"flag"
	"fmt"
	"os"

	"veritas"
	"veritas/internal/abduction"
	"veritas/internal/abr"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/trace"
	"veritas/internal/video"
)

func main() {
	var (
		logPath   = flag.String("log", "", "session log JSON (required)")
		abrName   = flag.String("abr", "mpc", "Setting B ABR: mpc, bba, bola, festive")
		buffer    = flag.Float64("buffer", player.DefaultBufferCap, "Setting B buffer capacity (seconds)")
		ladder    = flag.String("ladder", "default", "Setting B ladder: default or higher")
		truthPath = flag.String("truth", "", "optional true GTBW trace for an oracle row")
		k         = flag.Int("k", abduction.DefaultSamples, "number of posterior samples")
		seed      = flag.Int64("seed", 1, "sampling seed")
	)
	flag.Parse()

	if *logPath == "" {
		fmt.Fprintln(os.Stderr, "whatif: -log is required")
		os.Exit(2)
	}
	f, err := os.Open(*logPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whatif:", err)
		os.Exit(1)
	}
	log, err := player.DecodeLog(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "whatif: decode log:", err)
		os.Exit(1)
	}

	vcfg := video.DefaultConfig(*seed)
	if *ladder == "higher" {
		vcfg.Ladder = video.HigherLadder()
	} else if *ladder != "default" {
		fmt.Fprintf(os.Stderr, "whatif: unknown ladder %q\n", *ladder)
		os.Exit(2)
	}
	vid, err := video.Synthesize(vcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whatif:", err)
		os.Exit(1)
	}

	if _, err := veritas.NewABR(*abrName); err != nil {
		fmt.Fprintf(os.Stderr, "whatif: unknown ABR %q (want mpc, bba, bola, festive)\n", *abrName)
		os.Exit(2)
	}
	setting := abduction.Setting{
		Video: vid,
		NewABR: func() abr.Algorithm {
			alg, _ := veritas.NewABR(*abrName) // validated above
			return alg
		},
		BufferCap: *buffer,
		Net:       netem.DefaultConfig(),
	}

	abd, err := abduction.Abduct(log, abduction.Config{NumSamples: *k, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "whatif: abduction:", err)
		os.Exit(1)
	}
	out, err := abd.Counterfactual(setting)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whatif: replay:", err)
		os.Exit(1)
	}

	fmt.Printf("what-if: abr=%s buffer=%.0fs ladder=%s (K=%d samples)\n\n", *abrName, *buffer, *ladder, *k)
	fmt.Printf("%-16s %10s %10s %12s\n", "estimator", "SSIM", "rebuf %", "bitrate Mbps")
	row := func(name string, m player.Metrics) {
		fmt.Printf("%-16s %10.4f %10.2f %12.2f\n", name, m.AvgSSIM, m.RebufRatio*100, m.AvgBitrateMbps)
	}
	if *truthPath != "" {
		tf, err := os.Open(*truthPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whatif:", err)
			os.Exit(1)
		}
		gt, err := trace.Decode(tf)
		tf.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "whatif: decode truth:", err)
			os.Exit(1)
		}
		truth, err := abduction.Replay(gt, setting)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whatif: oracle replay:", err)
			os.Exit(1)
		}
		row("oracle (GTBW)", truth)
	}
	row("baseline", out.Baseline)
	ssimLo, ssimHi := out.SSIMRange()
	rebLo, rebHi := out.RebufRange()
	brLo, brHi := out.BitrateRange()
	fmt.Printf("%-16s %10.4f %10.2f %12.2f\n", "veritas (low)", ssimLo, rebLo*100, brLo)
	fmt.Printf("%-16s %10.4f %10.2f %12.2f\n", "veritas (high)", ssimHi, rebHi*100, brHi)
}
