package main

import (
	"flag"
	"strings"
	"testing"
)

// parse reads args the way main does, onto a fresh flag set, and
// returns the flags with the names that were set explicitly.
func parse(t *testing.T, args ...string) (daemonFlags, map[string]bool) {
	t.Helper()
	var f daemonFlags
	fs := flag.NewFlagSet("veritasd", flag.ContinueOnError)
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	return f, set
}

func TestFlagConflicts(t *testing.T) {
	const join, addr = "http://dispatcher:9300", "127.0.0.1:9300"
	for _, tc := range []struct {
		name string
		args []string
		want string // empty: accepted
	}{
		{"agent", []string{"-join", join}, ""},
		{"agent with every agent and shared flag", []string{"-join", join, "-name", "a", "-dir", "agent",
			"-restarts", "0", "-progress", "-quiet", "-log", "json", "-log-level", "debug", "-pprof", "localhost:6060"}, ""},
		{"agent with campaign flags", []string{"-join", join, "-sessions", "3", "-chunks", "40"}, "(drop -chunks, -sessions)"},
		{"agent with dispatcher flags", []string{"-join", join, "-shards", "2", "-serve", "-lease-ttl", "1s"}, "(drop -lease-ttl, -serve, -shards)"},
		{"dispatcher", []string{"-addr", addr, "-shards", "2", "-store", "c.store"}, ""},
		{"dispatcher with every dispatcher and shared flag", []string{"-addr", addr, "-shards", "2", "-store", "c.store",
			"-sessions", "3", "-lease-ttl", "1s", "-max-lease", "1m", "-serve", "-trace", "t.json", "-progress", "-quiet"}, ""},
		{"dispatcher with -restarts", []string{"-addr", addr, "-shards", "2", "-store", "c.store", "-restarts", "0"}, "(drop -restarts)"},
		{"dispatcher with -name and -dir", []string{"-addr", addr, "-name", "a", "-dir", "agent"}, "(drop -dir, -name)"},
		{"dispatcher with an empty -join", []string{"-addr", addr, "-join", ""}, "(drop -join)"},
		{"both roles", []string{"-join", join, "-addr", addr}, "mutually exclusive"},
		{"no role", nil, "pick a role"},
		{"no role, agent flags", []string{"-restarts", "0"}, "pick a role"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, set := parse(t, tc.args...)
			err := flagConflicts(set, f.join, f.addr)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("refused: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestAgentRestarts: the budget reaches the agent as given — -restarts
// 0 is no restarts, not the default — and the flag's default is 2.
func TestAgentRestarts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{"-restarts", "0"}, 0},
		{[]string{"-restarts", "5"}, 5},
	} {
		f, _ := parse(t, append([]string{"-join", "http://dispatcher:9300"}, tc.args...)...)
		if got := f.agentConfig().Restarts; got != tc.want {
			t.Errorf("%v: FleetAgentConfig.Restarts = %d, want %d", tc.args, got, tc.want)
		}
	}
}
