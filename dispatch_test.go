package veritas_test

// The dispatched-campaign harness. TestMain makes the test binary a
// valid dispatch worker (exactly as cmd/fleet's main does), so
// Campaign.Dispatch can re-exec this binary as its shard workers —
// no go-build of cmd/fleet needed — and a fleet agent when the fleet
// harness starts it with fleetAgentEnv set. The equivalence pins (one
// worker or agent SIGKILLed mid-run, folded output byte-identical to a
// single-process run) live in dispatch_unix_test.go and
// fleetd_unix_test.go.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"veritas"
)

// fleetAgentEnv carries the JSON FleetAgentConfig of a re-exec of this
// test binary that the fleet harness starts as an agent.
const fleetAgentEnv = "VERITAS_TEST_FLEET_AGENT"

func TestMain(m *testing.M) {
	// When a dispatch supervisor under test re-execs this binary as a
	// shard worker (or the fleet harness re-execs it as an agent), run
	// that role and exit instead of the test suite. Worker first: agent
	// processes spawn workers that inherit the agent environment.
	veritas.DispatchWorkerMain()
	if raw := os.Getenv(fleetAgentEnv); raw != "" {
		os.Exit(fleetAgent(raw))
	}
	os.Exit(m.Run())
}

// fleetAgent runs the agent raw configures until the campaign completes
// (0) or fails (1); SIGINT and SIGTERM end it cleanly.
func fleetAgent(raw string) int {
	var cfg veritas.FleetAgentConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fleet agent:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if _, err := veritas.RunFleetAgent(ctx, cfg); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "fleet agent:", err)
		return 1
	}
	return 0
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
		{"negative restarts", veritas.WithDispatchRestarts(-1), "negative"},
		{"nil events", veritas.WithDispatchEvents(nil), "nil"},
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

// TestFleetAgentRestartBudget: an agent's restart budget is taken as
// given, the rule WithDispatchRestarts follows. A stub dispatcher leases
// one shard whose spec every worker refuses (this binary, re-exec'd,
// exits 1) and then answers "done": the worker runs budget+1 times
// before the lease is released, so Restarts 0 is one attempt, not the
// default two restarts. A negative budget is refused before anything
// runs.
func TestFleetAgentRestartBudget(t *testing.T) {
	for _, restarts := range []int{0, 1} {
		var leased atomic.Bool
		var released atomic.Int32
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/agents", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"agent":"a","shards":1,"leaseTTLMs":60000,"heartbeatMs":60000}`)
		})
		mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
			if leased.CompareAndSwap(false, true) {
				fmt.Fprint(w, `{"status":"lease","shard":0,"of":1,"epoch":1,"ttlMs":60000,"spec":{"sessions":-3}}`)
				return
			}
			fmt.Fprint(w, `{"status":"done"}`)
		})
		mux.HandleFunc("POST /v1/release", func(w http.ResponseWriter, r *http.Request) {
			released.Add(1)
			fmt.Fprint(w, `{}`)
		})
		srv := httptest.NewServer(mux)
		res, err := veritas.RunFleetAgent(context.Background(), veritas.FleetAgentConfig{
			Dispatcher: srv.URL,
			Dir:        t.TempDir(),
			Restarts:   restarts,
		})
		srv.Close()
		if err != nil {
			t.Fatalf("Restarts %d: RunFleetAgent: %v", restarts, err)
		}
		if res.Restarts != restarts || res.Released != 1 || released.Load() != 1 {
			t.Errorf("Restarts %d: agent result %+v with %d release(s), want %d restart(s) then one release",
				restarts, res, released.Load(), restarts)
		}
	}

	_, err := veritas.RunFleetAgent(context.Background(), veritas.FleetAgentConfig{
		Dispatcher: "127.0.0.1:1",
		Dir:        t.TempDir(),
		Restarts:   -1,
	})
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("Restarts -1: err = %v, want a negative-budget refusal", err)
	}
}
