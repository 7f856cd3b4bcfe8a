package main

import (
	"flag"
	"strconv"
	"strings"

	"veritas"
)

// campaignFlags collects the campaign-shaping flags of dispatcher
// mode; the dispatcher owns the campaign definition, agents learn it
// from the lease spec.
type campaignFlags struct {
	workers   int
	sessions  int
	scenarios string
	chunks    int
	samples   int
	seed      int64
	buffer    float64
	abrs      string
	buffers   string
	storeDir  string
}

func (o *campaignFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&o.workers, "workers", 0, "dispatcher mode: worker pool size per agent worker process (0 = its GOMAXPROCS)")
	fs.IntVar(&o.sessions, "sessions", 8, "dispatcher mode: sessions per scenario")
	fs.StringVar(&o.scenarios, "scenarios", "", "dispatcher mode: comma-separated scenarios (default: all of "+strings.Join(veritas.Scenarios(), ",")+")")
	fs.IntVar(&o.chunks, "chunks", 120, "dispatcher mode: chunks per session (0 = full 10-min clip)")
	fs.IntVar(&o.samples, "samples", 5, "dispatcher mode: Veritas posterior samples K")
	fs.Int64Var(&o.seed, "seed", 1, "dispatcher mode: base seed for the whole campaign")
	fs.Float64Var(&o.buffer, "buffer", 5, "dispatcher mode: deployed (Setting A) buffer size, seconds")
	fs.StringVar(&o.abrs, "abrs", "bba,bola", "dispatcher mode: comma-separated what-if ABRs ("+strings.Join(veritas.ABRs(), ",")+")")
	fs.StringVar(&o.buffers, "buffers", "5,30", "dispatcher mode: comma-separated what-if buffer sizes, seconds")
	fs.StringVar(&o.storeDir, "store", "", "dispatcher mode: fold the fleet's shard stores into this corpus store directory")
}

// campaignOptions maps the flags onto the Campaign API; validation
// lives in veritas.NewCampaign.
func (o campaignFlags) campaignOptions() []veritas.CampaignOption {
	bufVals := parseFloatsLoose(o.buffers)
	opts := []veritas.CampaignOption{
		veritas.WithWorkers(o.workers),
		veritas.WithSessions(o.sessions),
		veritas.WithChunks(o.chunks),
		veritas.WithSamples(o.samples),
		veritas.WithSeed(o.seed),
		veritas.WithDeployedBuffer(o.buffer),
		veritas.WithMatrix(splitCSV(o.abrs), bufVals),
	}
	if sc := splitCSV(o.scenarios); len(sc) > 0 {
		opts = append(opts, veritas.WithScenarios(sc...))
	}
	if o.storeDir != "" {
		opts = append(opts, veritas.WithStore(o.storeDir))
	}
	return opts
}

func splitCSV(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseFloatsLoose parses a comma-joined float list, passing malformed
// values through as NaN-free zero-length output so that the campaign's
// own WithMatrix validation produces the user-facing error.
func parseFloatsLoose(s string) []float64 {
	var out []float64
	for _, p := range splitCSV(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}
