//go:build unix

package veritas_test

// The dispatch acceptance pin: the same campaign computed two ways —
// one process, and three supervised worker processes where one worker,
// whose store already holds one of its sessions, is SIGKILLed (so the
// supervisor restarts it with resume into its same store) — must produce byte-identical engine.Report JSON and
// byte-identical /v1/report bodies. This is the contract that turns
// the manual shard runbook into one command: supervision, crashes and
// restarts change how the corpus is computed, never what.

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"veritas"
	"veritas/internal/store"
)

func TestDispatchedCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	ctx := context.Background()
	const shards = 3

	// Way A: one process, one store.
	dirA := filepath.Join(t.TempDir(), "single.store")
	single, err := veritas.NewCampaign(append(dispatchOptions(), veritas.WithStore(dirA))...)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if _, err := single.Run(ctx); err != nil {
		t.Fatal(err)
	}
	wantReport := reportJSON(t, single)
	wantBody := v1Report(t, single)

	// Way B: dispatched across three worker processes (re-execs of this
	// test binary; see TestMain). Shard 1's store starts with one of its
	// two sessions already durable — the state a worker killed after its
	// first session leaves behind — and its first attempt is SIGKILLed
	// from its start event, which the supervisor emits right after the
	// process starts and before it reads a line of its output. The
	// supervisor must restart it with resume, and the restarted worker
	// must run only the missing session. (Killing on the first progress
	// event raced the shard's last session: a fast enough worker exited
	// 0 before the signal landed.)
	dst := filepath.Join(t.TempDir(), "dispatched.store")
	seedShardStore(t, filepath.Join(dst+".shards", "shard-1.store"), 1, shards)
	var killed atomic.Bool
	var shard1Progress []veritas.DispatchEvent
	var mu sync.Mutex
	events := func(e veritas.DispatchEvent) {
		if e.Type == veritas.DispatchStart && e.Shard == 1 && e.Attempt == 0 {
			if killed.CompareAndSwap(false, true) {
				syscall.Kill(e.PID, syscall.SIGKILL)
			}
		}
		if e.Type == veritas.DispatchProgress && e.Shard == 1 {
			mu.Lock()
			shard1Progress = append(shard1Progress, e)
			mu.Unlock()
		}
	}
	c, err := veritas.NewCampaign(append(dispatchOptions(),
		veritas.WithStore(dst),
		veritas.WithDispatchRestarts(3),
		veritas.WithDispatchEvents(events),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Dispatch(ctx, shards)
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Load() {
		t.Fatal("no worker was killed; the harness did not exercise crash-restart")
	}
	if res.Restarts < 1 {
		t.Fatalf("supervisor counted %d restarts after a SIGKILLed worker", res.Restarts)
	}
	// Progress is rebased over the durable sessions: the one session the
	// restarted worker ran reports 2 of 2, never 1 of 2 (a recomputed
	// seeded session) or 1 of 1 (a store that lost it).
	mu.Lock()
	if len(shard1Progress) != 1 || shard1Progress[0].Done != 2 || shard1Progress[0].Total != 2 {
		t.Errorf("shard 1 progress %+v, want one event at 2 of 2", shard1Progress)
	}
	mu.Unlock()
	corpus, err := c.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != len(corpus) {
		t.Errorf("folded %d sessions, want the whole %d-session corpus", res.Folded, len(corpus))
	}

	// The dispatching campaign itself now reports from the folded
	// store, byte-identically to the single-process run — through
	// Report() and through the serving layer.
	if got := reportJSON(t, c); !bytes.Equal(wantReport, got) {
		t.Fatalf("dispatched report differs from the single-process run\nwant: %s\ngot:  %s", wantReport, got)
	}
	if got := v1Report(t, c); !bytes.Equal(wantBody, got) {
		t.Fatal("dispatched /v1/report body differs from the single-process store's")
	}

	// And the shard stores remain foldable by hand — FoldShards over
	// the dispatch parent directory reproduces the same corpus.
	refold := filepath.Join(t.TempDir(), "refold.store")
	if _, err := veritas.FoldShards(refold, dst+".shards"); err != nil {
		t.Fatal(err)
	}
	rc, err := veritas.NewCampaign(veritas.WithStore(refold), veritas.WithReadOnlyStore())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := reportJSON(t, rc); !bytes.Equal(wantReport, got) {
		t.Fatal("parent-directory refold differs from the single-process run")
	}

	// The supervisor's Trace is the fleet-wide view: its own worker
	// lifecycle traces merged with the session traces the workers
	// streamed up the NDJSON protocol. The supervisor runs no sessions
	// itself, so any session trace proves the worker stream arrived.
	kinds := make(map[string]bool)
	for _, tr := range c.Trace() {
		kinds[tr.Kind] = true
	}
	for _, want := range []string{"worker", "session"} {
		if !kinds[want] {
			t.Errorf("fleet trace missing %q traces after dispatch (kinds %v)", want, kinds)
		}
	}
}

// seedShardStore leaves dir holding exactly one completed session of
// shard index of count of the dispatch campaign: one worker, cancelled
// from the callback that follows its first store append, so it pulls no
// second session.
func seedShardStore(t *testing.T, dir string, index, count int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := veritas.NewCampaign(append(dispatchOptions(),
		veritas.WithStore(dir),
		veritas.WithShard(index, count),
		veritas.WithWorkers(1),
		veritas.WithProgress(func(veritas.FleetSessionResult) { cancel() }),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("seeding run: %v, want context.Canceled", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := st.Len(); n != 1 {
		t.Fatalf("seeded shard store holds %d sessions, want 1", n)
	}
}
