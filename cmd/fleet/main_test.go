package main

import (
	"flag"
	"strings"
	"testing"

	"veritas"
	"veritas/internal/cli"
)

// The flag→campaign mapping is internal/cli's (shared with veritasd);
// it is pinned here, against fleet's own flag set.

// goodFlags mirrors the flag defaults.
func goodFlags(t *testing.T) cli.CampaignFlags {
	t.Helper()
	var o cli.CampaignFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.Register(fs, "", "workers", "store")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	return o
}

// build maps flags onto the Campaign API, which owns validation.
func build(o cli.CampaignFlags, extra ...veritas.CampaignOption) (*veritas.Campaign, error) {
	opts, err := o.Options()
	if err != nil {
		return nil, err
	}
	return veritas.NewCampaign(append(opts, extra...)...)
}

func TestFlagsMapOntoCampaign(t *testing.T) {
	c, err := build(goodFlags(t))
	if err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	corpus, err := c.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(veritas.Scenarios()) * 8; len(corpus) != want {
		t.Errorf("default corpus has %d sessions, want %d", len(corpus), want)
	}
	arms, err := c.Arms()
	if err != nil {
		t.Fatal(err)
	}
	if len(arms) != 4 {
		t.Errorf("default matrix has %d arms, want bba/bola x 5s/30s = 4", len(arms))
	}

	o := goodFlags(t)
	o.StoreDir = "campaign.store"
	o.Resume = true
	o.Scenarios = "lte, wifi"
	if _, err := build(o); err != nil {
		t.Fatalf("valid store+resume flags rejected: %v", err)
	}
}

func TestBadFlagsRejectedByCampaign(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*cli.CampaignFlags)
		want   string
	}{
		{"negative workers", func(o *cli.CampaignFlags) { o.Workers = -2 }, "negative"},
		{"zero sessions", func(o *cli.CampaignFlags) { o.Sessions = 0 }, "must be positive"},
		{"negative chunks", func(o *cli.CampaignFlags) { o.Chunks = -1 }, "negative"},
		{"zero samples", func(o *cli.CampaignFlags) { o.Samples = 0 }, "must be positive"},
		{"nonpositive buffer", func(o *cli.CampaignFlags) { o.Buffer = 0 }, "positive seconds"},
		{"no abrs", func(o *cli.CampaignFlags) { o.ABRs = " " }, "at least one"},
		{"unknown abr", func(o *cli.CampaignFlags) { o.ABRs = "vhs" }, `unknown ABR "vhs"`},
		{"no buffers", func(o *cli.CampaignFlags) { o.Buffers = "" }, "at least one"},
		{"negative what-if buffer", func(o *cli.CampaignFlags) { o.Buffers = "5,-1" }, "positive seconds"},
		{"duplicate buffers", func(o *cli.CampaignFlags) { o.Buffers = "5,5" }, "listed twice"},
		{"unknown scenario", func(o *cli.CampaignFlags) { o.Scenarios = "dialup" }, `unknown scenario "dialup"`},
		{"duplicate scenarios", func(o *cli.CampaignFlags) { o.Scenarios = "lte,lte" }, "listed twice"},
		{"duplicate abrs", func(o *cli.CampaignFlags) { o.ABRs = "bba,bba" }, "listed twice"},
		{"resume without store", func(o *cli.CampaignFlags) { o.Resume = true }, "WithResume needs WithStore"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := goodFlags(t)
			tc.mutate(&o)
			_, err := build(o)
			if err == nil {
				t.Fatal("bad flags accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestShardFlagMapsOntoCampaign(t *testing.T) {
	o := goodFlags(t)
	o.ShardIndex, o.ShardCount = 1, 3
	if _, err := build(o); err != nil {
		t.Fatalf("valid -shard rejected: %v", err)
	}
	// Range validation lives in the campaign, reached via the flags.
	o.ShardIndex = 3
	if _, err := build(o); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("-shard 3/3: err = %v, want out-of-range", err)
	}
}

func TestDispatchFlagsMapOntoCampaign(t *testing.T) {
	// The dispatch paths build their campaign from the same flag->option
	// mapping plus the dispatch knobs; a bad restart budget must be
	// rejected by the option, not discovered mid-run.
	if _, err := build(goodFlags(t), veritas.WithDispatchRestarts(2)); err != nil {
		t.Fatalf("dispatch options rejected: %v", err)
	}
	if _, err := build(goodFlags(t), veritas.WithDispatchRestarts(-1)); err == nil {
		t.Error("negative restart budget accepted")
	}
}

func TestSplitCSVAndParseFloats(t *testing.T) {
	if got := cli.SplitCSV(" lte, wifi ,"); len(got) != 2 || got[0] != "lte" || got[1] != "wifi" {
		t.Errorf("SplitCSV = %v", got)
	}
	if got := cli.SplitCSV("  "); got != nil {
		t.Errorf("SplitCSV on blank = %v, want nil", got)
	}
	o := goodFlags(t)
	o.Buffers = "5, 30"
	if _, err := o.Options(); err != nil {
		t.Errorf("-buffers %q rejected: %v", o.Buffers, err)
	}
	o.Buffers = "5,abc"
	if _, err := o.Options(); err == nil || !strings.HasPrefix(err.Error(), "-buffers: ") {
		t.Errorf("-buffers %q: err = %v, want a -buffers parse error", o.Buffers, err)
	}
}

// TestFlagConflicts pins the contradictory-flag-combination table:
// every rejected pairing must fail fast with an error naming the
// offending flags, and every legitimate combination must pass.
func TestFlagConflicts(t *testing.T) {
	cases := []struct {
		name      string
		set       []string // flags explicitly passed
		dispatchN int
		storeDir  string
		want      string // "" = must be accepted
	}{
		{"no flags", nil, 0, "", ""},
		{"plain store run", []string{"store"}, 0, "x.store", ""},
		{"dispatch with store", []string{"dispatch", "store"}, 4, "x.store", ""},
		{"dispatch zero", []string{"dispatch"}, 0, "x.store", "at least 1"},
		{"dispatch negative", []string{"dispatch", "store"}, -2, "x.store", "at least 1"},
		{"dispatch without store", []string{"dispatch"}, 4, "", "-dispatch needs -store"},
		{"dispatch with shard", []string{"dispatch", "store", "shard"}, 4, "x.store", "-shard (dispatch owns the partition)"},
		{"dispatch with fold", []string{"dispatch", "store", "fold"}, 4, "x.store", "-fold (dispatch folds for you)"},
		{"dispatch with resume", []string{"dispatch", "store", "resume"}, 4, "x.store", "-resume (dispatch workers always resume)"},
		{"dispatch with shard and resume", []string{"dispatch", "store", "shard", "resume"}, 4, "x.store",
			"-shard (dispatch owns the partition), -resume (dispatch workers always resume)"},
		{"serve without dispatch", []string{"serve"}, 0, "", "-serve requires -dispatch"},
		{"status without dispatch", []string{"status"}, 0, "", "-status requires -dispatch"},
		{"restarts without dispatch", []string{"restarts"}, 0, "", "-restarts requires -dispatch"},
		{"fold with store", []string{"fold", "store"}, 0, "x.store", ""},
		{"fold with observability flags", []string{"fold", "store", "log", "log-level", "quiet", "pprof"}, 0, "x.store", ""},
		{"fold without store", []string{"fold"}, 0, "", "-fold needs -store"},
		{"fold with resume", []string{"fold", "store", "resume"}, 0, "x.store", "drop -resume"},
		{"fold with shard", []string{"fold", "store", "shard"}, 0, "x.store", "drop -shard"},
		{"fold with campaign flags", []string{"fold", "store", "sessions", "seed"}, 0, "x.store", "drop -seed, -sessions"},
		{"shard with store", []string{"shard", "store"}, 0, "x.store", ""},
		{"shard without store", []string{"shard"}, 0, "", "-shard needs -store"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			err := flagConflicts(set, tc.dispatchN, tc.storeDir)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("combination rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("contradictory combination accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseShard(t *testing.T) {
	idx, cnt, err := parseShard("1/3")
	if err != nil || idx != 1 || cnt != 3 {
		t.Errorf("parseShard(1/3) = %d, %d, %v", idx, cnt, err)
	}
	if idx, cnt, err = parseShard(" 0 / 2 "); err != nil || idx != 0 || cnt != 2 {
		t.Errorf("parseShard with spaces = %d, %d, %v", idx, cnt, err)
	}
	for _, bad := range []string{"", "3", "a/b", "1/", "/3", "1-3"} {
		if _, _, err := parseShard(bad); err == nil {
			t.Errorf("parseShard(%q) accepted", bad)
		}
	}
}

func TestMultiFlag(t *testing.T) {
	var m multiFlag
	for _, v := range []string{"a.store", "b.store,c.store", " d.store , "} {
		if err := m.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	want := []string{"a.store", "b.store", "c.store", "d.store"}
	if len(m) != len(want) {
		t.Fatalf("multiFlag = %v, want %v", m, want)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Errorf("multiFlag[%d] = %q, want %q", i, m[i], want[i])
		}
	}
	if err := m.Set(" , "); err == nil {
		t.Error("blank -fold value accepted")
	}
	if got := m.String(); got != "a.store,b.store,c.store,d.store" {
		t.Errorf("String() = %q", got)
	}
}
