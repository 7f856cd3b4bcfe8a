// Package cli is the one CLI layer under the command binaries
// (cmd/fleet, cmd/veritasd, cmd/serve): structured-logger construction
// from the -log/-log-level flags, the one-line JSON telemetry summary
// flushed to stderr on clean shutdown, the -pprof/-trace/fatal-exit
// plumbing, and — for the two dispatch front ends — the campaign flag
// set with its option mapping and the dispatch event printer.
package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds the slog.Logger behind the -log and -log-level
// flags: format "text" (the default, human-oriented key=value lines)
// or "json" (one JSON object per line, for log shippers); level one of
// "debug", "info", "warn", "error".
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (have debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (have text, json)", format)
	}
}

// WriteTelemetrySummary flushes one line of JSON — the flattened
// telemetry summary map under a "telemetry" key — to w. Commands call
// it on clean shutdown (opt-out with -quiet) so every run leaves a
// machine-readable digest of what it did, whatever the -log format.
// encoding/json sorts map keys, so the line is deterministic for a
// given snapshot.
func WriteTelemetrySummary(w io.Writer, summary map[string]float64) error {
	b, err := json.Marshal(struct {
		Telemetry map[string]float64 `json:"telemetry"`
	}{summary})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
