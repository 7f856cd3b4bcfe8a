//go:build unix

package dispatch

// Supervisor lifecycle coverage with scripted fake workers: progress
// protocol parsing, crash-restart-resume with backoff, restart-budget
// exhaustion, partial-shard layout detection, fold replacement rules,
// and graceful cancellation. The end-to-end equivalence of a dispatched
// campaign (real workers, a mid-run kill, byte-identical reports) is
// pinned one layer up, in the veritas package's dispatch harness.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"veritas/internal/engine"
	"veritas/internal/player"
	"veritas/internal/store"
)

// collector gathers supervisor events; Run serializes OnEvent calls,
// but the test goroutine reads concurrently, hence the lock.
type collector struct {
	mu     sync.Mutex
	events []Event
}

func (c *collector) add(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *collector) byType(t EventType) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, e := range c.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// testRow builds a minimal aggregatable session row.
func testRow(i int) engine.SessionRow {
	m := player.Metrics{AvgSSIM: 0.9 + float64(i)*1e-3, RebufRatio: 0.01 * float64(i%5), AvgBitrateMbps: 2, NumChunks: 30}
	return engine.SessionRow{
		Index:     i,
		ID:        fmt.Sprintf("fcc-%03d", i),
		Scenario:  "fcc",
		Simulated: true,
		SettingA:  m,
		Arms:      []engine.ArmOutcome{{Name: "bba-5s", Baseline: m, Samples: []player.Metrics{m}, Truth: m, HasTruth: true}},
	}
}

// sh builds a Command factory that runs script through sh for every
// worker attempt.
func sh(script string) func(Worker) (*exec.Cmd, error) {
	return func(Worker) (*exec.Cmd, error) {
		return exec.Command("sh", "-c", script), nil
	}
}

// makeShardStore lays a complete shard store (rows + shard.json, and
// optionally a campaign fingerprint) into dir, as a finished worker
// would have left it.
func makeShardStore(t *testing.T, dir string, meta ShardMetaLike, rows []int, fingerprint []byte) {
	t.Helper()
	s, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range rows {
		if err := s.Append(testRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteShardMeta(dir, store.ShardMeta{Index: meta.Index, Count: meta.Count}); err != nil {
		t.Fatal(err)
	}
	if fingerprint != nil {
		if err := os.WriteFile(filepath.Join(dir, store.CampaignMetaFile), fingerprint, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// ShardMetaLike avoids importing the store type at every call site.
type ShardMetaLike struct{ Index, Count int }

// prepShards pre-creates complete shard stores under dir, so a
// no-op worker ("sh -c true") stands in for one that already finished.
func prepShards(t *testing.T, dir string, shards int, fingerprint []byte) {
	t.Helper()
	row := 0
	for i := 0; i < shards; i++ {
		rows := []int{row, row + 1}
		row += 2
		makeShardStore(t, ShardDir(dir, i), ShardMetaLike{Index: i, Count: shards}, rows, fingerprint)
	}
}

func TestDispatchSuccessAndFold(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	dst := filepath.Join(t.TempDir(), "folded.store")
	fp := []byte(`{"Seed": 7}`)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	prepShards(t, dir, 2, fp)

	var got collector
	res, err := Run(context.Background(), Config{
		Shards:   2,
		Dir:      dir,
		FoldInto: dst,
		Backoff:  time.Millisecond,
		OnEvent:  got.add,
		Command: sh(`printf '{"type":"progress","done":1,"total":2}\n'
printf '{"type":"progress","done":2,"total":2}\n'
echo not-a-protocol-line
echo worker-stderr >&2`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 4 {
		t.Errorf("folded %d sessions, want 4", res.Folded)
	}
	if res.Restarts != 0 {
		t.Errorf("counted %d restarts on a clean run", res.Restarts)
	}
	if len(res.ShardDirs) != 2 || res.ShardDirs[0] != ShardDir(dir, 0) {
		t.Errorf("shard dirs = %v", res.ShardDirs)
	}

	if n := len(got.byType(EventStart)); n != 2 {
		t.Errorf("%d start events, want 2", n)
	}
	prog := got.byType(EventProgress)
	if len(prog) != 4 {
		t.Fatalf("%d progress events, want 4: %+v", len(prog), prog)
	}
	for _, e := range prog {
		if e.Total != 2 || e.Done < 1 || e.Done > 2 || e.PID == 0 {
			t.Errorf("bad progress event %+v", e)
		}
	}
	var stdout, stderr int
	for _, e := range got.byType(EventLine) {
		switch {
		case e.Stream == "stdout" && e.Line == "not-a-protocol-line":
			stdout++
		case e.Stream == "stderr" && e.Line == "worker-stderr":
			stderr++
		}
	}
	if stdout != 2 || stderr != 2 {
		t.Errorf("forwarded %d stdout / %d stderr lines, want 2/2", stdout, stderr)
	}
	folds := got.byType(EventFold)
	if len(folds) != 1 || folds[0].Done != 4 {
		t.Errorf("fold events = %+v", folds)
	}

	// The folded store is the whole campaign: fingerprint kept, shard
	// assignment dropped, all rows present.
	if _, ok, _ := store.ReadShardMeta(dst); ok {
		t.Error("folded store still carries shard.json")
	}
	ro, err := store.Open(dst, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.Len() != 4 {
		t.Errorf("folded store holds %d rows, want 4", ro.Len())
	}
}

func TestDispatchRestartResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	prepShards(t, dir, 2, nil)

	var got collector
	res, err := Run(context.Background(), Config{
		Shards:      2,
		Dir:         dir,
		MaxRestarts: 2,
		Backoff:     time.Millisecond,
		OnEvent:     got.add,
		Command: func(w Worker) (*exec.Cmd, error) {
			// Shard 1 crashes on its first attempt; the relaunch (the
			// "resume") succeeds.
			if w.Shard == 1 && w.Attempt == 0 {
				return exec.Command("sh", "-c", "echo crashing >&2; exit 7"), nil
			}
			return exec.Command("sh", "-c", "true"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Errorf("counted %d restarts, want 1", res.Restarts)
	}
	restarts := got.byType(EventRestart)
	if len(restarts) != 1 || restarts[0].Shard != 1 || restarts[0].Delay <= 0 || restarts[0].Err == nil {
		t.Errorf("restart events = %+v", restarts)
	}
	var crashExits int
	for _, e := range got.byType(EventExit) {
		if e.Err != nil {
			crashExits++
			if !strings.Contains(e.Err.Error(), "exit status 7") {
				t.Errorf("crash exit err = %v", e.Err)
			}
		}
	}
	if crashExits != 1 {
		t.Errorf("%d crash exits, want 1", crashExits)
	}
}

func TestDispatchRestartBudgetExhaustion(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	dst := filepath.Join(t.TempDir(), "folded.store")
	var got collector
	_, err := Run(context.Background(), Config{
		Shards:      1,
		Dir:         dir,
		FoldInto:    dst,
		MaxRestarts: 2,
		Backoff:     time.Millisecond,
		OnEvent:     got.add,
		Command:     sh("exit 3"),
	})
	if err == nil {
		t.Fatal("a permanently failing shard dispatched successfully")
	}
	if !strings.Contains(err.Error(), "failed permanently after 3 attempt(s)") {
		t.Errorf("err = %v, want the exhausted budget spelled out", err)
	}
	if n := len(got.byType(EventRestart)); n != 2 {
		t.Errorf("%d restart events, want 2 (the budget)", n)
	}
	if n := len(got.byType(EventStart)); n != 3 {
		t.Errorf("%d start events, want 3 (first launch + 2 restarts)", n)
	}
	if _, statErr := os.Stat(dst); !errors.Is(statErr, os.ErrNotExist) {
		t.Errorf("fold ran despite the failure: %v", statErr)
	}
	// The backoff must actually grow: with base 1ms the second restart
	// waits 2ms.
	restarts := got.byType(EventRestart)
	if restarts[0].Delay != time.Millisecond || restarts[1].Delay != 2*time.Millisecond {
		t.Errorf("backoff delays = %v, %v; want 1ms then 2ms", restarts[0].Delay, restarts[1].Delay)
	}
}

func TestDispatchZeroRestartBudget(t *testing.T) {
	_, err := Run(context.Background(), Config{
		Shards:  1,
		Dir:     filepath.Join(t.TempDir(), "shards"),
		Command: sh("exit 1"),
		Backoff: time.Millisecond,
		// MaxRestarts 0 means "no restarts", not "default": the zero
		// value must not silently become DefaultMaxRestarts.
		MaxRestarts: 0,
	})
	if err == nil || !strings.Contains(err.Error(), "after 1 attempt(s)") {
		t.Errorf("err = %v, want failure on the first attempt with no restarts", err)
	}
}

func TestDispatchPartialShardDetection(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	// A leftover from a 3-shard layout must refuse a 2-shard dispatch
	// before any worker starts.
	makeShardStore(t, ShardDir(dir, 0), ShardMetaLike{Index: 0, Count: 3}, []int{0}, nil)
	spawned := 0
	_, err := Run(context.Background(), Config{
		Shards: 2,
		Dir:    dir,
		Command: func(Worker) (*exec.Cmd, error) {
			spawned++
			return exec.Command("sh", "-c", "true"), nil
		},
	})
	if err == nil || !strings.Contains(err.Error(), "previous layout") {
		t.Errorf("stale shard layout accepted: err = %v", err)
	}
	if spawned != 0 {
		t.Errorf("%d workers spawned despite the stale layout", spawned)
	}

	// A stray shard store under a name its index does not own is
	// likewise refused.
	dir2 := filepath.Join(t.TempDir(), "shards")
	makeShardStore(t, filepath.Join(dir2, "elsewhere.store"), ShardMetaLike{Index: 0, Count: 2}, []int{0}, nil)
	_, err = Run(context.Background(), Config{Shards: 2, Dir: dir2, Command: sh("true")})
	if err == nil || !strings.Contains(err.Error(), "stray") {
		t.Errorf("stray shard store accepted: err = %v", err)
	}
}

func TestDispatchRefusesSilentlyEmptyShard(t *testing.T) {
	// A "worker" that exits 0 without leaving a stamped shard store —
	// a host binary that forgot DispatchWorkerMain, say — must fail the
	// dispatch, not fold an incomplete campaign.
	_, err := Run(context.Background(), Config{
		Shards:  2,
		Dir:     filepath.Join(t.TempDir(), "shards"),
		Command: sh("true"),
	})
	if err == nil || !strings.Contains(err.Error(), "left no shard store") {
		t.Errorf("empty-shard success accepted: err = %v", err)
	}
}

func TestDispatchFoldReplacement(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	dst := filepath.Join(t.TempDir(), "folded.store")
	fp := []byte(`{"Seed": 7}`)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	prepShards(t, dir, 2, fp)
	cfg := Config{Shards: 2, Dir: dir, FoldInto: dst, Backoff: time.Millisecond, Command: sh("true")}

	// First dispatch folds; a rerun replaces its own stale fold.
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("re-dispatch over a previous fold: %v", err)
	}
	if res.Folded != 4 {
		t.Errorf("refold kept %d sessions, want 4", res.Folded)
	}

	// A destination holding a *different* campaign is refused — at
	// preflight, before any worker is spawned, because the shard stores
	// already carry their fingerprint: burning a whole campaign only to
	// refuse the fold would waste the run.
	other := filepath.Join(t.TempDir(), "other.store")
	makeShardStore(t, other, ShardMetaLike{Index: 0, Count: 1}, []int{9}, []byte(`{"Seed": 99}`))
	if err := os.Remove(filepath.Join(other, store.ShardMetaFile)); err != nil {
		t.Fatal(err)
	}
	cfg.FoldInto = other
	spawned := 0
	cfg.Command = func(Worker) (*exec.Cmd, error) {
		spawned++
		return exec.Command("sh", "-c", "true"), nil
	}
	if _, err := Run(context.Background(), cfg); err == nil ||
		!strings.Contains(err.Error(), "different campaign") {
		t.Errorf("fold replaced someone else's store: err = %v", err)
	}
	if spawned != 0 {
		t.Errorf("%d workers spawned before the irreplaceable fold destination was detected", spawned)
	}

	// A non-empty destination with no campaign.json at all is likewise
	// refused up front.
	plain := t.TempDir()
	if err := os.WriteFile(filepath.Join(plain, "keep.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.FoldInto = plain
	if _, err := Run(context.Background(), cfg); err == nil ||
		!strings.Contains(err.Error(), "no campaign.json") {
		t.Errorf("fold aimed at a fingerprint-less directory: err = %v", err)
	}
	if spawned != 0 {
		t.Errorf("%d workers spawned before the fingerprint-less fold destination was detected", spawned)
	}

	// But a fresh dispatch (shard stores not stamped yet) into an
	// absent destination must not be refused by the preflight.
	fresh := Config{
		Shards:   1,
		Dir:      filepath.Join(t.TempDir(), "shards"),
		FoldInto: filepath.Join(t.TempDir(), "new.store"),
		Command:  sh("true"),
	}
	makeShardStore(t, ShardDir(fresh.Dir, 0), ShardMetaLike{Index: 0, Count: 1}, []int{0}, nil)
	if _, err := Run(context.Background(), fresh); err != nil {
		t.Errorf("fresh dispatch refused at preflight: %v", err)
	}
}

// TestDispatchFingerprintPreflight: with Config.Fingerprints set (the
// campaign layer always knows its own campaign.json), a fold
// destination holding a different campaign is refused before any
// worker runs, even when the shard stores haven't been stamped yet —
// a fresh multi-hour dispatch must not compute everything and then
// refuse to fold.
func TestDispatchFingerprintPreflight(t *testing.T) {
	otherFP, ourFP := []byte(`{"Seed": 99}`), []byte(`{"Seed": 7}`)
	mkDst := func() string {
		dst := filepath.Join(t.TempDir(), "prev.store")
		makeShardStore(t, dst, ShardMetaLike{Index: 0, Count: 1}, []int{0}, otherFP)
		if err := os.Remove(filepath.Join(dst, store.ShardMetaFile)); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	spawned := 0
	cfg := Config{
		Shards:       1,
		Dir:          filepath.Join(t.TempDir(), "shards"), // fresh: nothing stamped
		FoldInto:     mkDst(),
		Fingerprints: [][]byte{ourFP},
		Command: func(Worker) (*exec.Cmd, error) {
			spawned++
			return exec.Command("sh", "-c", "true"), nil
		},
	}
	if _, err := Run(context.Background(), cfg); err == nil ||
		!strings.Contains(err.Error(), "different campaign") {
		t.Errorf("mismatched destination passed preflight: err = %v", err)
	}
	if spawned != 0 {
		t.Errorf("%d workers spawned before the mismatched destination was detected", spawned)
	}

	// A destination carrying one of our acceptable fingerprints is
	// replaceable; the dispatch proceeds and refolds over it. Trailing
	// slashes on Dir/FoldInto must not nest derived paths inside them.
	dir := filepath.Join(t.TempDir(), "shards")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	makeShardStore(t, ShardDir(dir, 0), ShardMetaLike{Index: 0, Count: 1}, []int{1}, ourFP)
	dst := filepath.Join(t.TempDir(), "prev.store")
	makeShardStore(t, dst, ShardMetaLike{Index: 0, Count: 1}, []int{0}, ourFP)
	if err := os.Remove(filepath.Join(dst, store.ShardMetaFile)); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Shards:       1,
		Dir:          dir + string(os.PathSeparator),
		FoldInto:     dst + string(os.PathSeparator),
		Fingerprints: [][]byte{ourFP},
		Command:      sh("true"),
	})
	if err != nil {
		t.Fatalf("matching destination refused: %v", err)
	}
	if res.Folded != 1 {
		t.Errorf("refold kept %d sessions, want 1", res.Folded)
	}
	if _, statErr := os.Stat(filepath.Join(dst, "..", "prev.store.folding")); !os.IsNotExist(statErr) {
		t.Error("fold temporary left behind")
	}
}

// TestDispatchOverlongOutputLine: a worker line past the scanner's cap
// must not wedge the supervisor — the pipe keeps draining, the worker
// exits, and the truncation is surfaced as a line event.
func TestDispatchOverlongOutputLine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	prepShards(t, dir, 1, nil)
	var got collector
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), Config{
			Shards:  1,
			Dir:     dir,
			OnEvent: got.add,
			// One 2MB line (no newline until the end), then more output
			// the scanner will never see but the drain must swallow.
			Command: sh("head -c 2000000 /dev/zero | tr '\\0' x; echo; echo after >&2"),
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("supervisor wedged on an overlong worker line")
	}
	found := false
	for _, e := range got.byType(EventLine) {
		if strings.Contains(e.Line, "scan aborted") {
			found = true
		}
	}
	if !found {
		t.Error("overlong line was discarded without a truncation event")
	}
}

func TestDispatchCancellation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	ctx, cancel := context.WithCancel(context.Background())
	var got collector
	started := make(chan struct{}, 2)
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, Config{
			Shards: 2,
			Dir:    dir,
			OnEvent: func(e Event) {
				got.add(e)
				if e.Type == EventStart {
					started <- struct{}{}
				}
			},
			Command: sh("sleep 60"),
		})
		done <- err
	}()
	<-started
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled dispatch returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled dispatch did not return (workers not terminated?)")
	}
	// The cancellation-induced exits must not count as crash restarts.
	if n := len(got.byType(EventRestart)); n != 0 {
		t.Errorf("%d restart events after cancellation, want 0", n)
	}
}

func TestDispatchConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero shards":             {Dir: "x", Command: sh("true")},
		"no command":              {Shards: 1, Dir: "x"},
		"no dir":                  {Shards: 1, Command: sh("true")},
		"negative restart budget": {Shards: 1, Dir: "x", Command: sh("true"), MaxRestarts: -1},
	} {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A negative budget is refused, never read as a default: 0 already
	// means no restarts. RunShard, the fleet agent's entry, too.
	cfg := Config{Shards: 1, Command: sh("true"), MaxRestarts: -1}
	if _, err := RunShard(context.Background(), cfg, 0, t.TempDir()); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("RunShard with MaxRestarts -1: err = %v, want a negative-budget refusal", err)
	}
}
