package veritas_test

// The dispatched-campaign harness. TestMain makes the test binary a
// valid dispatch worker (exactly as cmd/fleet's main does), so
// Campaign.Dispatch can re-exec this binary as its shard workers —
// no go-build of cmd/fleet needed. The equivalence pin (one worker
// SIGKILLed mid-run, folded output byte-identical to a single-process
// run) lives in dispatch_unix_test.go.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"veritas"
)

func TestMain(m *testing.M) {
	// When a dispatch supervisor under test re-execs this binary as a
	// shard worker (or the fleet harness re-execs it as an agent), run
	// that role and exit instead of the test suite. Worker first: agent
	// processes spawn workers that inherit the agent environment.
	veritas.DispatchWorkerMain()
	veritas.FleetAgentMain()
	os.Exit(m.Run())
}

// dispatchOptions is the campaign the dispatch harness runs: big
// enough that a shard survives long enough to be killed mid-run (3
// sessions per shard at 3 shards), small enough for a unit test.
func dispatchOptions() []veritas.CampaignOption {
	return []veritas.CampaignOption{
		veritas.WithScenarios("fcc", "lte"),
		veritas.WithSessions(3),
		veritas.WithChunks(25),
		veritas.WithSeed(3),
		veritas.WithSamples(2),
		veritas.WithMatrix([]string{"bba"}, []float64{5}),
	}
}

func TestDispatchValidation(t *testing.T) {
	ctx := context.Background()
	store := filepath.Join(t.TempDir(), "c.store")
	cases := []struct {
		name string
		opts []veritas.CampaignOption
		n    int
		want string
	}{
		{"no store", dispatchOptions(), 2, "needs WithStore"},
		{"zero shards", append(dispatchOptions(), veritas.WithStore(store)), 0, "at least 1"},
		{"read-only", append(dispatchOptions(), veritas.WithStore(store), veritas.WithReadOnlyStore()), 2, "read-only"},
		{"with shard", append(dispatchOptions(), veritas.WithStore(store), veritas.WithShard(0, 2)), 2, "mutually exclusive"},
		{"with corpus", []veritas.CampaignOption{
			veritas.WithCorpus(veritas.FleetSpec{ID: "x"}), veritas.WithStore(store)}, 2, "serialize"},
		{"with progress", append(dispatchOptions(), veritas.WithStore(store),
			veritas.WithProgress(func(veritas.FleetSessionResult) {})), 2, "WithDispatchEvents"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := veritas.NewCampaign(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Dispatch(ctx, tc.n); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Dispatch: err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestDispatchOptionValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  veritas.CampaignOption
		want string
	}{
		{"empty binary", veritas.WithDispatchBinary(""), "needs a path"},
		{"empty dir", veritas.WithDispatchDir(""), "needs a directory"},
		{"negative restarts", veritas.WithDispatchRestarts(-1), "negative"},
		{"zero backoff", veritas.WithDispatchBackoff(0), "must be positive"},
		{"nil events", veritas.WithDispatchEvents(nil), "nil"},
		{"nil progress counts", veritas.WithProgressCounts(nil), "nil"},
	} {
		if _, err := veritas.NewCampaign(tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestDispatchRefusesOpenStore: the fold replaces the store directory
// on disk, which must not happen under a live handle in this process.
func TestDispatchRefusesOpenStore(t *testing.T) {
	c, err := veritas.NewCampaign(append(dispatchOptions(),
		veritas.WithStore(filepath.Join(t.TempDir(), "c.store")))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Store(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Dispatch(context.Background(), 2); err == nil ||
		!strings.Contains(err.Error(), "Close it before Dispatch") {
		t.Errorf("Dispatch with an open store handle: err = %v", err)
	}
}

// TestWithProgressCounts pins the in-process progress hook the worker
// protocol is built on: every completed session reports, the final
// count equals the executed total, and the totals account for resume
// skips and shard partitions.
func TestWithProgressCounts(t *testing.T) {
	var (
		calls  []int
		totals = map[int]bool{}
	)
	c, err := veritas.NewCampaign(append(quickOptions(),
		veritas.WithProgressCounts(func(done, total int) {
			calls = append(calls, done)
			totals[total] = true
		}),
		veritas.WithWorkers(1), // serialize so the slice needs no lock
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != res.Executed {
		t.Errorf("progress called %d times, want %d", len(calls), res.Executed)
	}
	if len(totals) != 1 || !totals[res.Executed] {
		t.Errorf("progress totals = %v, want exactly {%d}", totals, res.Executed)
	}
	highest := 0
	for _, d := range calls {
		if d > highest {
			highest = d
		}
	}
	if highest != res.Executed {
		t.Errorf("final progress count %d, want %d", highest, res.Executed)
	}
}
