// Command sessionrun simulates a video streaming session over a
// bandwidth trace and emits the session log as JSON — the observables a
// deployed system would record, ready for abduction.
//
// Usage:
//
//	sessionrun -trace trace.txt -abr mpc -buffer 5 > session.json
package main

import (
	"flag"
	"fmt"
	"os"

	"veritas"
	"veritas/internal/abr"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/trace"
	"veritas/internal/video"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "bandwidth trace file (required)")
		abrName   = flag.String("abr", "mpc", "ABR algorithm: mpc, bba, bola, festive, random, fixed:<q>")
		buffer    = flag.Float64("buffer", player.DefaultBufferCap, "player buffer capacity (seconds)")
		chunks    = flag.Int("chunks", 0, "limit session length in chunks (0 = full video)")
		ladder    = flag.String("ladder", "default", "quality ladder: default or higher")
		seed      = flag.Int64("seed", 1, "seed for video synthesis and network jitter")
		rtt       = flag.Float64("rtt", 0.160, "round-trip time (seconds)")
	)
	flag.Parse()

	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "sessionrun: -trace is required")
		os.Exit(2)
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionrun:", err)
		os.Exit(1)
	}
	tr, err := trace.Decode(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionrun: decode trace:", err)
		os.Exit(1)
	}

	vcfg := video.DefaultConfig(*seed)
	switch *ladder {
	case "default":
	case "higher":
		vcfg.Ladder = video.HigherLadder()
	default:
		fmt.Fprintf(os.Stderr, "sessionrun: unknown ladder %q\n", *ladder)
		os.Exit(2)
	}
	vid, err := video.Synthesize(vcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionrun:", err)
		os.Exit(1)
	}

	alg, err := parseABR(*abrName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionrun:", err)
		os.Exit(2)
	}

	net := netem.DefaultConfig()
	net.RTT = *rtt
	net.Seed = *seed
	log, m, err := player.Run(player.Config{
		Video:     vid,
		ABR:       alg,
		Trace:     tr,
		Net:       net,
		BufferCap: *buffer,
		MaxChunks: *chunks,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionrun:", err)
		os.Exit(1)
	}
	if err := player.EncodeLog(os.Stdout, log); err != nil {
		fmt.Fprintln(os.Stderr, "sessionrun:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "session: %d chunks, SSIM %.4f, rebuffering %.2f%%, avg bitrate %.2f Mbps\n",
		m.NumChunks, m.AvgSSIM, m.RebufRatio*100, m.AvgBitrateMbps)
}

func parseABR(name string, seed int64) (abr.Algorithm, error) {
	if name == "random" {
		return abr.NewRandom(seed), nil
	}
	var q int
	if n, _ := fmt.Sscanf(name, "fixed:%d", &q); n == 1 {
		return &abr.Fixed{Quality: q}, nil
	}
	if alg, err := veritas.NewABR(name); err == nil {
		return alg, nil
	}
	return nil, fmt.Errorf("unknown ABR %q (want mpc, bba, bola, festive, random, fixed:<q>)", name)
}
