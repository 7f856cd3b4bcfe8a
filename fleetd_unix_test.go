//go:build unix

package veritas_test

// The fleet acceptance pin: the same campaign computed two ways — one
// process, and a networked fleet of two veritasd-style agents where
// one agent (and its whole worker process group) is SIGKILLed mid-
// campaign, forcing the dispatcher to steal its leased shard and
// re-lease it to the survivor — must produce byte-identical
// engine.Report JSON and byte-identical /v1/report bodies. Work
// stealing changes which machine computes a shard, never what the
// campaign reports.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"veritas"
)

// fleetOptions is the fleet harness campaign: 2 scenarios x 3 sessions
// = 6 sessions over 3 shards (2 per shard), serialized on one worker.
// The kill signal is agent-a's first lease grant, not its progress, so
// how fast a session runs never decides whether stealing is exercised.
func fleetOptions() []veritas.CampaignOption {
	return []veritas.CampaignOption{
		veritas.WithScenarios("fcc", "lte"),
		veritas.WithSessions(3),
		veritas.WithChunks(3000),
		veritas.WithSeed(11),
		veritas.WithSamples(2),
		veritas.WithMatrix([]string{"bba"}, []float64{5}),
		veritas.WithWorkers(1),
	}
}

// spawnFleetAgent re-execs this test binary as a fleet agent (see
// TestMain) in its own process group, so killing the group takes the
// agent and every worker it spawned down together — a machine death,
// as far as the dispatcher can tell.
func spawnFleetAgent(t *testing.T, dispatcher, name, dir string, out *bytes.Buffer) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := json.Marshal(veritas.FleetAgentConfig{
		Dispatcher: dispatcher,
		Name:       name,
		Dir:        dir,
		Restarts:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fleetAgentEnv+"="+string(cfg))
	cmd.Stdout = out
	cmd.Stderr = out
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

func TestFleetCampaignEquivalenceUnderAgentDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real agent and worker processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Way A: one process, one store.
	dirA := filepath.Join(t.TempDir(), "single.store")
	single, err := veritas.NewCampaign(append(fleetOptions(), veritas.WithStore(dirA))...)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if _, err := single.Run(ctx); err != nil {
		t.Fatal(err)
	}
	wantReport := reportJSON(t, single)
	wantBody := v1Report(t, single)

	// Way B: a fleet. agent-a starts alone. The dispatcher emits its
	// first lease event before the grant is written back, and the
	// callback SIGKILLs agent-a there — whole process group, workers
	// included — so agent-a dies holding a lease it never learned of.
	// Only then does agent-b start; the lease must expire and agent-b
	// must steal the shard. Nothing here depends on how long a session
	// or a heartbeat takes.
	var pidA int
	pidReady, killedCh := make(chan struct{}), make(chan struct{})
	var killed atomic.Bool
	events := func(e veritas.DispatchEvent) {
		if e.Type == veritas.DispatchLease && e.Agent == "agent-a" && killed.CompareAndSwap(false, true) {
			<-pidReady
			syscall.Kill(-pidA, syscall.SIGKILL)
			close(killedCh)
		}
	}
	ready := make(chan string, 1)
	dst := filepath.Join(t.TempDir(), "fleet.store")
	c, err := veritas.NewCampaign(append(fleetOptions(),
		veritas.WithStore(dst),
		veritas.WithFleet("127.0.0.1:0"),
		veritas.WithFleetLease(300*time.Millisecond),
		veritas.WithFleetReady(func(addr string) { ready <- addr }),
		veritas.WithDispatchEvents(events),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type serveOut struct {
		res *veritas.FleetDispatchResult
		err error
	}
	serveCh := make(chan serveOut, 1)
	go func() {
		res, err := c.ServeFleet(ctx, 3)
		serveCh <- serveOut{res, err}
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("fleet listener never came up")
	case out := <-serveCh:
		t.Fatalf("ServeFleet returned before serving: %+v, %v", out.res, out.err)
	}

	var outA, outB bytes.Buffer
	agentA := spawnFleetAgent(t, addr, "agent-a", filepath.Join(t.TempDir(), "agent-a"), &outA)
	pidA = agentA.Process.Pid
	close(pidReady)
	defer func() {
		// Belt and braces: no agent process group outlives the test.
		syscall.Kill(-agentA.Process.Pid, syscall.SIGKILL)
		agentA.Wait()
	}()
	select {
	case <-killedCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("agent-a never leased a shard\nagent-a output:\n%s", outA.Bytes())
	case out := <-serveCh:
		t.Fatalf("ServeFleet returned before agent-a leased: %+v, %v", out.res, out.err)
	}
	agentB := spawnFleetAgent(t, addr, "agent-b", filepath.Join(t.TempDir(), "agent-b"), &outB)
	defer func() {
		syscall.Kill(-agentB.Process.Pid, syscall.SIGKILL)
		agentB.Wait()
	}()

	out := <-serveCh
	if out.err != nil {
		t.Fatalf("ServeFleet: %v\nagent-a output:\n%s\nagent-b output:\n%s", out.err, outA.Bytes(), outB.Bytes())
	}
	res := out.res
	if res.Steals < 1 {
		t.Fatalf("fleet completed with %d steals after an agent was SIGKILLed mid-lease", res.Steals)
	}
	corpus, err := c.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != len(corpus) {
		t.Errorf("folded %d sessions, want the whole %d-session corpus", res.Folded, len(corpus))
	}
	if len(res.Agents) != 2 || res.Agents[0] != "agent-a" || res.Agents[1] != "agent-b" {
		t.Errorf("registered agents = %v, want [agent-a agent-b]", res.Agents)
	}

	// The surviving agent sees "done" on its next lease request and
	// exits cleanly.
	if err := agentB.Wait(); err != nil {
		t.Errorf("agent-b exited with %v\noutput:\n%s", err, outB.Bytes())
	}

	// The dispatching campaign reports from the folded store,
	// byte-identically to the single-process run — through Report()
	// and through the serving layer.
	if got := reportJSON(t, c); !bytes.Equal(wantReport, got) {
		t.Fatalf("fleet report differs from the single-process run\nwant: %s\ngot:  %s", wantReport, got)
	}
	if got := v1Report(t, c); !bytes.Equal(wantBody, got) {
		t.Fatal("fleet /v1/report body differs from the single-process store's")
	}

	// And the shard stores the agents shipped remain foldable by hand.
	refold := filepath.Join(t.TempDir(), "refold.store")
	shardDirs := make([]string, 3)
	for i := range shardDirs {
		shardDirs[i] = filepath.Join(dst+".shards", fmt.Sprintf("shard-%d.store", i))
	}
	if _, err := veritas.FoldShards(refold, shardDirs...); err != nil {
		t.Fatal(err)
	}
	rc, err := veritas.NewCampaign(veritas.WithStore(refold), veritas.WithReadOnlyStore())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := reportJSON(t, rc); !bytes.Equal(wantReport, got) {
		t.Fatal("refold of the shipped shard stores differs from the single-process run")
	}

	// The fleet trace view carries the agents' streamed session traces,
	// stamped with agent provenance.
	var agentStamped bool
	for _, tr := range c.Trace() {
		if tr.Kind == "session" && tr.Agent != "" {
			agentStamped = true
			break
		}
	}
	if !agentStamped {
		kinds := map[string]int{}
		for _, tr := range c.Trace() {
			kinds[fmt.Sprintf("%s@%s", tr.Kind, tr.Agent)]++
		}
		t.Errorf("no agent-stamped session trace in the fleet view (have %v)", kinds)
	}
}
