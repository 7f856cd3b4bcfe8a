package cli

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers on the default mux StartPprof serves
	"os"
	"strconv"
	"strings"

	"veritas"
	"veritas/internal/abduction"
	"veritas/internal/engine"
	"veritas/internal/player"
)

// CampaignFlags are the campaign-shaping flags cmd/fleet and
// cmd/veritasd share, one veritas.CampaignOption per flag. Validation
// (unknown scenarios and ABRs, duplicates, sign errors,
// resume-without-store) lives in veritas.NewCampaign, not here.
type CampaignFlags struct {
	Workers   int
	Sessions  int
	Scenarios string // comma-separated; empty means all
	Chunks    int
	Samples   int
	Seed      int64
	Buffer    float64
	ABRs      string // comma-separated
	Buffers   string // comma-separated seconds
	StoreDir  string

	// cmd/fleet only; veritasd's dispatcher owns resume and sharding.
	Resume     bool
	ShardIndex int
	ShardCount int // 0 = unsharded
}

// Register declares the shared flags on fs. mode prefixes every help
// string ("dispatcher mode: " in veritasd, where the flags mean nothing
// to an agent); workersHelp and storeHelp are the two descriptions the
// front ends word differently.
func (o *CampaignFlags) Register(fs *flag.FlagSet, mode, workersHelp, storeHelp string) {
	fs.IntVar(&o.Workers, "workers", 0, mode+workersHelp)
	fs.IntVar(&o.Sessions, "sessions", engine.DefaultSessionsPer, mode+"sessions per scenario")
	fs.StringVar(&o.Scenarios, "scenarios", "", mode+"comma-separated scenarios (default: all of "+strings.Join(veritas.Scenarios(), ",")+")")
	fs.IntVar(&o.Chunks, "chunks", 120, mode+"chunks per session (0 = full 10-min clip)")
	fs.IntVar(&o.Samples, "samples", abduction.DefaultSamples, mode+"Veritas posterior samples K")
	fs.Int64Var(&o.Seed, "seed", 1, mode+"base seed for the whole campaign")
	fs.Float64Var(&o.Buffer, "buffer", player.DefaultBufferCap, mode+"deployed (Setting A) buffer size, seconds")
	fs.StringVar(&o.ABRs, "abrs", "bba,bola", mode+"comma-separated what-if ABRs ("+strings.Join(veritas.ABRs(), ",")+")")
	fs.StringVar(&o.Buffers, "buffers", "5,30", mode+"comma-separated what-if buffer sizes, seconds")
	fs.StringVar(&o.StoreDir, "store", "", mode+storeHelp)
}

// Options maps the flags onto the Campaign API.
func (o CampaignFlags) Options() ([]veritas.CampaignOption, error) {
	buffers, err := parseFloats(o.Buffers)
	if err != nil {
		return nil, fmt.Errorf("-buffers: %w", err)
	}
	opts := []veritas.CampaignOption{
		veritas.WithWorkers(o.Workers),
		veritas.WithSessions(o.Sessions),
		veritas.WithChunks(o.Chunks),
		veritas.WithSamples(o.Samples),
		veritas.WithSeed(o.Seed),
		veritas.WithDeployedBuffer(o.Buffer),
		veritas.WithMatrix(SplitCSV(o.ABRs), buffers),
	}
	if sc := SplitCSV(o.Scenarios); len(sc) > 0 {
		opts = append(opts, veritas.WithScenarios(sc...))
	}
	if o.StoreDir != "" {
		opts = append(opts, veritas.WithStore(o.StoreDir))
	}
	if o.Resume {
		opts = append(opts, veritas.WithResume())
	}
	if o.ShardCount > 0 {
		opts = append(opts, veritas.WithShard(o.ShardIndex, o.ShardCount))
	}
	return opts, nil
}

// SplitCSV splits a comma-joined flag value, trimming blanks; nil for
// an empty value.
func SplitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range SplitCSV(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// WriteTrace exports the campaign's tail-sampled traces as Chrome
// trace-event JSON at path (no-op when -trace was not given). Load the
// file in Perfetto (ui.perfetto.dev) or chrome://tracing; under a
// networked fleet the thread names carry the @agent suffix.
func WriteTrace(log *slog.Logger, c *veritas.Campaign, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Info("trace written", "path", path, "traces", len(c.Trace()))
	return nil
}

// StartPprof serves the net/http/pprof handlers on addr. Opt-in:
// profiling endpoints must never listen unless asked for.
func StartPprof(log *slog.Logger, addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Error("pprof listener failed", "error", err)
		}
	}()
}

// Fatal logs err and exits nonzero.
func Fatal(log *slog.Logger, err error) {
	log.Error("fatal", "error", err)
	os.Exit(1)
}
