package fleetd

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"veritas/internal/dispatch"
	"veritas/internal/engine"
	"veritas/internal/player"
	"veritas/internal/store"
	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

var testFingerprint = []byte(`{"seed": 7, "sessions": 4}`)

func testRow(i int) engine.SessionRow {
	m := player.Metrics{AvgSSIM: 0.9 + float64(i)*1e-3, RebufRatio: 0.01, AvgBitrateMbps: 2, NumChunks: 30}
	return engine.SessionRow{
		Index:    i,
		ID:       fmt.Sprintf("fcc-%03d", i),
		Scenario: "fcc",
		SettingA: m,
		Arms: []engine.ArmOutcome{{
			Name: "bba-5s", Baseline: m, Samples: []player.Metrics{m, m}, Truth: m, HasTruth: true,
		}},
	}
}

// buildShardStore writes a closed, verifiable shard store for shard
// index/count at dir, holding the campaign-partition rows (index mod
// count), and returns its session count.
func buildShardStore(t *testing.T, dir string, index, count int) int {
	t.Helper()
	s, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < 4; i++ {
		if i%count != index {
			continue
		}
		if err := s.Append(testRow(i)); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteShardMeta(dir, store.ShardMeta{Index: index, Count: count}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, store.CampaignMetaFile), testFingerprint, 0o644); err != nil {
		t.Fatal(err)
	}
	return n
}

// eventLog captures the dispatcher's serialized event stream.
type eventLog struct {
	mu     sync.Mutex
	events []dispatch.Event
}

func (l *eventLog) add(e dispatch.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) types() []dispatch.EventType {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]dispatch.EventType, len(l.events))
	for i, e := range l.events {
		out[i] = e.Type
	}
	return out
}

func (l *eventLog) count(typ dispatch.EventType) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// testDispatcher builds a dispatcher (with injected clock and event
// log) and serves it over httptest.
func testDispatcher(t *testing.T, shards int, mutate func(*Config)) (*Dispatcher, *httptest.Server, *eventLog, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	log := &eventLog{}
	cfg := Config{
		Shards:       shards,
		Dir:          filepath.Join(t.TempDir(), "shards"),
		FoldInto:     filepath.Join(t.TempDir(), "folded"),
		Fingerprints: [][]byte{testFingerprint},
		Spec:         json.RawMessage(`{"chunks": 25}`),
		LeaseTTL:     time.Minute,
		OnEvent:      log.add,
		Telemetry:    telemetry.NewRegistry(),
		Tracer:       tracing.New(8),
		now:          clock.now,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() { srv.Close(); d.Close() })
	return d, srv, log, clock
}

// postJSON posts v and decodes the response into out (when non-nil),
// returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// uploadStore ships dir as (agent, shard, epoch) and returns the HTTP
// status code.
func uploadStore(t *testing.T, base, dir, agent string, shard, epoch int) int {
	t.Helper()
	var buf bytes.Buffer
	if _, err := store.Ship(&buf, dir); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/upload?agent=%s&shard=%d&epoch=%d", base, agent, shard, epoch)
	resp, err := http.Post(url, "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestDispatcherProtocolEndToEnd(t *testing.T) {
	d, srv, log, _ := testDispatcher(t, 2, nil)

	// Wait must be running for the completion fold.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type waitOut struct {
		res *Result
		err error
	}
	waitCh := make(chan waitOut, 1)
	go func() {
		res, err := d.Wait(ctx)
		waitCh <- waitOut{res, err}
	}()

	// Register.
	var reg registerResponse
	if code := postJSON(t, srv.URL+"/v1/agents", registerRequest{Name: "alpha"}, &reg); code != 200 {
		t.Fatalf("register: HTTP %d", code)
	}
	if reg.Agent != "alpha" || reg.Shards != 2 || reg.LeaseTTLMs != 60_000 {
		t.Fatalf("register response = %+v", reg)
	}

	// Lease shard 0; the lease carries the opaque worker spec.
	var lease leaseResponse
	if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "alpha"}, &lease); code != 200 {
		t.Fatalf("lease: HTTP %d", code)
	}
	if lease.Status != "lease" || lease.Shard != 0 || lease.Epoch != 1 || string(lease.Spec) != `{"chunks":25}` {
		t.Fatalf("lease = %+v (spec %s)", lease, lease.Spec)
	}

	// Heartbeat with progress, telemetry and a trace: everything lands
	// in the fleet view with agent provenance.
	hb := heartbeatRequest{
		Agent: "alpha", Shard: 0, Epoch: 1, Done: 1, Total: 2,
		Snapshot: &telemetry.Snapshot{Counters: map[string]uint64{"veritas_sessions_total": 1}},
		Traces:   []tracing.Trace{{ID: "fcc-000", Kind: "session", Dur: 1.5}},
	}
	if code := postJSON(t, srv.URL+"/v1/heartbeat", hb, nil); code != 200 {
		t.Fatalf("heartbeat: HTTP %d", code)
	}

	statusBody, _ := get(t, srv.URL+"/v1/status")
	var status struct {
		Shards []struct {
			State string `json:"state"`
			Agent string `json:"agent"`
			Epoch int    `json:"epoch"`
		} `json:"shards"`
		Agents []struct {
			Agent  string `json:"agent"`
			State  string `json:"state"`
			Shards []int  `json:"shards"`
		} `json:"agents"`
	}
	if err := json.Unmarshal(statusBody, &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Shards) != 2 || status.Shards[0].Agent != "alpha" || status.Shards[0].Epoch != 1 || status.Shards[0].State != "running" {
		t.Errorf("shard rows = %+v", status.Shards)
	}
	if len(status.Agents) != 1 || status.Agents[0].Agent != "alpha" || status.Agents[0].State != "alive" ||
		len(status.Agents[0].Shards) != 1 || status.Agents[0].Shards[0] != 0 {
		t.Errorf("agent rows = %+v", status.Agents)
	}
	metrics, _ := get(t, srv.URL+"/metrics")
	if !strings.Contains(string(metrics), `veritas_sessions_total{agent="alpha"} 1`) {
		t.Errorf("metrics lack the per-agent-labeled worker counter:\n%s", metrics)
	}
	traceBody, _ := get(t, srv.URL+"/v1/trace")
	if !strings.Contains(string(traceBody), `@alpha`) {
		t.Errorf("trace export lacks the agent-suffixed thread name:\n%.400s", traceBody)
	}

	// The report is a 503 until the fold.
	if _, code := getCode(t, srv.URL+"/v1/report"); code != http.StatusServiceUnavailable {
		t.Errorf("/v1/report before fold: HTTP %d, want 503", code)
	}

	// Upload shard 0, then a duplicate: the second is a 410.
	shard0 := filepath.Join(t.TempDir(), "local-0")
	buildShardStore(t, shard0, 0, 2)
	if code := uploadStore(t, srv.URL, shard0, "alpha", 0, 1); code != 200 {
		t.Fatalf("upload shard 0: HTTP %d", code)
	}
	if code := uploadStore(t, srv.URL, shard0, "alpha", 0, 1); code != http.StatusGone {
		t.Errorf("duplicate upload: HTTP %d, want 410", code)
	}

	// A corrupt upload for shard 1 is refused and leaves the lease
	// intact for a clean retry.
	if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "alpha"}, &lease); code != 200 || lease.Shard != 1 {
		t.Fatalf("lease shard 1: HTTP %d, %+v", code, lease)
	}
	shard1 := filepath.Join(t.TempDir(), "local-1")
	buildShardStore(t, shard1, 1, 2)
	resp, err := http.Post(fmt.Sprintf("%s/v1/upload?agent=alpha&shard=1&epoch=%d", srv.URL, lease.Epoch),
		"application/octet-stream", strings.NewReader("not a shipped store"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt upload: HTTP %d, want 400", resp.StatusCode)
	}
	if code := uploadStore(t, srv.URL, shard1, "alpha", 1, lease.Epoch); code != 200 {
		t.Fatalf("upload shard 1 after refused corrupt attempt: HTTP %d", code)
	}

	// Campaign complete: lease answers done, Wait folds, the report
	// serves.
	if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "alpha"}, &lease); code != 200 || lease.Status != "done" {
		t.Fatalf("post-completion lease: HTTP %d, %+v", code, lease)
	}
	out := <-waitCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Folded != 4 || out.res.Steals != 0 || len(out.res.Agents) != 1 || out.res.Agents[0] != "alpha" {
		t.Errorf("result = %+v", out.res)
	}
	report, code := getCode(t, srv.URL+"/v1/report")
	if code != 200 || !strings.Contains(string(report), `"Sessions":4`) {
		t.Errorf("/v1/report after fold: HTTP %d, %.200s", code, report)
	}

	// The event stream told the whole story in order.
	wantOrder := []dispatch.EventType{dispatch.EventLease, dispatch.EventProgress, dispatch.EventTelemetry,
		dispatch.EventTraces, dispatch.EventUpload, dispatch.EventLease, dispatch.EventUpload, dispatch.EventFold}
	got := log.types()
	if len(got) != len(wantOrder) {
		t.Fatalf("event stream = %v, want %v", got, wantOrder)
	}
	for i := range wantOrder {
		if got[i] != wantOrder[i] {
			t.Fatalf("event[%d] = %s, want %s (full stream %v)", i, got[i], wantOrder[i], got)
		}
	}
}

// TestDispatcherStealFencing drives the work-stealing path over HTTP:
// a dead agent's lease expires, the next lease request sweeps and
// re-grants the shard, and the ghost's late heartbeat and upload are
// fenced by epoch.
func TestDispatcherStealFencing(t *testing.T) {
	d, srv, log, clock := testDispatcher(t, 1, nil)
	_ = d

	for _, name := range []string{"ghost", "heir"} {
		if code := postJSON(t, srv.URL+"/v1/agents", registerRequest{Name: name}, nil); code != 200 {
			t.Fatalf("register %s: HTTP %d", name, code)
		}
	}
	var lease leaseResponse
	if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "ghost"}, &lease); code != 200 || lease.Shard != 0 || lease.Epoch != 1 {
		t.Fatalf("ghost lease: HTTP %d, %+v", code, lease)
	}

	// The ghost dies. Its lease outlives it by the TTL, during which
	// the heir waits.
	if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "heir"}, &lease); code != 200 || lease.Status != "wait" {
		t.Fatalf("heir lease while ghost alive: HTTP %d, %+v", code, lease)
	}
	clock.advance(2 * time.Minute)

	// The heir's next ask sweeps the expired lease and wins the shard
	// at the next epoch.
	if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "heir"}, &lease); code != 200 || lease.Status != "lease" || lease.Shard != 0 || lease.Epoch != 2 {
		t.Fatalf("heir lease after expiry: HTTP %d, %+v", code, lease)
	}
	if log.count(dispatch.EventSteal) != 1 {
		t.Errorf("steal events = %d, want 1", log.count(dispatch.EventSteal))
	}

	// The ghost comes back: every verb it knew is fenced.
	if code := postJSON(t, srv.URL+"/v1/heartbeat", heartbeatRequest{Agent: "ghost", Shard: 0, Epoch: 1}, nil); code != http.StatusConflict {
		t.Errorf("ghost heartbeat after re-lease: HTTP %d, want 409", code)
	}
	ghostStore := filepath.Join(t.TempDir(), "ghost-0")
	buildShardStore(t, ghostStore, 0, 1)
	if code := uploadStore(t, srv.URL, ghostStore, "ghost", 0, 1); code != http.StatusConflict {
		t.Errorf("ghost upload after re-lease: HTTP %d, want 409", code)
	}

	// Status reflects the theft: the fleet stole once, the ghost shows
	// lost, the shard belongs to the heir.
	statusBody, _ := get(t, srv.URL+"/v1/status")
	var status struct {
		Steals int `json:"steals"`
		Shards []struct {
			Agent  string `json:"agent"`
			Steals int    `json:"steals"`
		} `json:"shards"`
		Agents []struct {
			Agent string `json:"agent"`
			State string `json:"state"`
		} `json:"agents"`
	}
	if err := json.Unmarshal(statusBody, &status); err != nil {
		t.Fatal(err)
	}
	if status.Steals != 1 || status.Shards[0].Agent != "heir" || status.Shards[0].Steals != 1 {
		t.Errorf("status after steal = %s", statusBody)
	}
	states := map[string]string{}
	for _, a := range status.Agents {
		states[a.Agent] = a.State
	}
	if states["heir"] != "alive" {
		t.Errorf("heir state = %q, want alive", states["heir"])
	}

	// The heir's upload is the one accepted.
	heirStore := filepath.Join(t.TempDir(), "heir-0")
	buildShardStore(t, heirStore, 0, 1)
	if code := uploadStore(t, srv.URL, heirStore, "heir", 0, 2); code != 200 {
		t.Fatalf("heir upload: HTTP %d", code)
	}
}

// TestDispatcherDrainWaitsForLiveAgents: after the campaign completes,
// Drain holds until the agent that finished it has been told "done" —
// closing the listener sooner would leave that agent to find the
// dispatcher gone — and does not wait for an agent whose lease was
// stolen and which was never seen again.
func TestDispatcherDrainWaitsForLiveAgents(t *testing.T) {
	d, srv, _, clock := testDispatcher(t, 1, nil)
	for _, name := range []string{"ghost", "heir"} {
		if code := postJSON(t, srv.URL+"/v1/agents", registerRequest{Name: name}, nil); code != 200 {
			t.Fatalf("register %s: HTTP %d", name, code)
		}
	}
	var lease leaseResponse
	if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "ghost"}, &lease); code != 200 || lease.Status != "lease" {
		t.Fatalf("ghost lease: HTTP %d, %+v", code, lease)
	}
	clock.advance(2 * time.Minute)
	if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "heir"}, &lease); code != 200 || lease.Status != "lease" {
		t.Fatalf("heir lease after expiry: HTTP %d, %+v", code, lease)
	}
	heirStore := filepath.Join(t.TempDir(), "heir-0")
	buildShardStore(t, heirStore, 0, 1)
	if code := uploadStore(t, srv.URL, heirStore, "heir", 0, lease.Epoch); code != 200 {
		t.Fatalf("heir upload: HTTP %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := d.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() {
		d.Drain(ctx)
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned before the heir was told the campaign is done")
	case <-time.After(50 * time.Millisecond):
	}
	if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "heir"}, &lease); code != 200 || lease.Status != "done" {
		t.Fatalf("post-completion lease: HTTP %d, %+v", code, lease)
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain still waiting after every live agent heard done (is it waiting for the ghost?)")
	}
}

// TestDispatcherControlBodyCap: a control body over maxControlBody is
// refused before it is acted on — an over-cap heartbeat gets 413 and
// does not renew the lease it names, while the same heartbeat under the
// cap does (so the probe can tell the difference).
func TestDispatcherControlBodyCap(t *testing.T) {
	d, srv, _, clock := testDispatcher(t, 1, nil)
	if code := postJSON(t, srv.URL+"/v1/agents", registerRequest{Name: "a"}, nil); code != 200 {
		t.Fatalf("register: HTTP %d", code)
	}
	var granted leaseResponse
	if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "a"}, &granted); code != 200 || granted.Status != "lease" {
		t.Fatalf("lease: HTTP %d, %+v", code, granted)
	}
	clock.advance(30 * time.Second)
	leases := func() []lease {
		d.tab.mu.Lock()
		defer d.tab.mu.Unlock()
		return append([]lease(nil), d.tab.leases...)
	}
	before := leases()

	// Valid JSON (unknown fields are ignored), just too much of it. Fed
	// to the handler directly: over a socket the server may hang up
	// before the client has finished sending.
	body := fmt.Sprintf(`{"agent":"a","shard":%d,"epoch":%d,"pad":"%s"}`,
		granted.Shard, granted.Epoch, strings.Repeat("x", maxControlBody))
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/heartbeat", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap heartbeat: HTTP %d, want 413 (%s)", rec.Code, rec.Body.Bytes())
	}
	if after := leases(); !reflect.DeepEqual(before, after) {
		t.Errorf("over-cap heartbeat changed the lease table\nbefore %+v\nafter  %+v", before, after)
	}

	hb := heartbeatRequest{Agent: "a", Shard: granted.Shard, Epoch: granted.Epoch}
	if code := postJSON(t, srv.URL+"/v1/heartbeat", hb, nil); code != 200 {
		t.Fatalf("in-cap heartbeat: HTTP %d", code)
	}
	if after := leases(); reflect.DeepEqual(before, after) {
		t.Error("an accepted heartbeat left the lease table unchanged: the probe above proves nothing")
	}
}

// TestDispatcherLeaseBudgetFailsCampaign: a shard that burns every
// lease turns the campaign fatal, and both the lease handler and Wait
// report it.
func TestDispatcherLeaseBudgetFailsCampaign(t *testing.T) {
	d, srv, _, clock := testDispatcher(t, 1, func(c *Config) { c.MaxGrants = 2 })

	postJSON(t, srv.URL+"/v1/agents", registerRequest{Name: "crashy"}, nil)
	for i := 0; i < 2; i++ {
		var lease leaseResponse
		if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "crashy"}, &lease); code != 200 || lease.Status != "lease" {
			t.Fatalf("lease %d: HTTP %d, %+v", i, code, lease)
		}
		clock.advance(2 * time.Minute) // let it expire rather than release
	}
	if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "crashy"}, nil); code != http.StatusConflict {
		t.Fatalf("lease past the budget: HTTP %d, want 409", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := d.Wait(ctx); err == nil || !strings.Contains(err.Error(), "lease budget") {
		t.Fatalf("Wait = %v, want the lease-budget failure", err)
	}
}

// TestDispatcherAdoptsPreviousShards: verified shard stores already
// under Dir when the dispatcher starts are done work; only the missing
// shards are leased out.
func TestDispatcherAdoptsPreviousShards(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	buildShardStore(t, dispatch.ShardDir(dir, 0), 0, 2)
	d, srv, log, _ := testDispatcher(t, 2, func(c *Config) { c.Dir = dir })
	_ = d

	if log.count(dispatch.EventUpload) != 1 {
		t.Fatalf("adoption emitted %d upload events, want 1", log.count(dispatch.EventUpload))
	}
	postJSON(t, srv.URL+"/v1/agents", registerRequest{Name: "late"}, nil)
	var lease leaseResponse
	if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "late"}, &lease); code != 200 || lease.Shard != 1 {
		t.Fatalf("lease = HTTP %d, %+v; want shard 1 (shard 0 was adopted)", code, lease)
	}
}

// TestDispatcherClearsStagedUploads: an upload a previous dispatcher
// received and verified but never moved into place carries a
// shard.json, yet it was never accepted. A restarted dispatcher starts
// over it, adopts nothing from it and leaves no staging directory.
func TestDispatcherClearsStagedUploads(t *testing.T) {
	src := t.TempDir()
	buildShardStore(t, src, 0, 2)
	var buf bytes.Buffer
	if _, err := store.Ship(&buf, src); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "shards")
	incoming := filepath.Join(dir, ".incoming")
	if _, err := store.Receive(&buf, filepath.Join(incoming, "shard-0-e1")); err != nil {
		t.Fatal(err)
	}
	_, _, log, _ := testDispatcher(t, 2, func(c *Config) { c.Dir = dir })
	if n := log.count(dispatch.EventUpload); n != 0 {
		t.Errorf("the dispatcher adopted %d staged upload(s)", n)
	}
	if _, err := os.Stat(incoming); !os.IsNotExist(err) {
		t.Errorf("the staged upload outlived the restart (stat err %v)", err)
	}
}

// TestAgentWorksLeasesEndToEnd runs a real Agent against a real
// dispatcher over HTTP, with a stub worker command (cp of a pre-built
// shard store) standing in for the veritas re-exec: the agent leases
// both shards, "computes" them, ships both stores, and the dispatcher
// folds a complete campaign.
func TestAgentWorksLeasesEndToEnd(t *testing.T) {
	if _, err := exec.LookPath("cp"); err != nil {
		t.Skip("no cp on PATH")
	}
	d, srv, _, _ := testDispatcher(t, 2, nil)

	prebuilt := make([]string, 2)
	for i := range prebuilt {
		prebuilt[i] = filepath.Join(t.TempDir(), fmt.Sprintf("prebuilt-%d", i))
		buildShardStore(t, prebuilt[i], i, 2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type waitOut struct {
		res *Result
		err error
	}
	waitCh := make(chan waitOut, 1)
	go func() {
		res, err := d.Wait(ctx)
		waitCh <- waitOut{res, err}
	}()

	res, err := RunAgent(ctx, AgentConfig{
		Dispatcher: srv.URL,
		Name:       "solo",
		Dir:        filepath.Join(t.TempDir(), "agent"),
		Logf:       t.Logf,
		OnEvent: func(e dispatch.Event) {
			if e.Err != nil {
				t.Logf("agent event %s shard %d: %v", e.Type, e.Shard, e.Err)
			}
			if e.Type == dispatch.EventLine {
				t.Logf("worker line [%s]: %s", e.Stream, e.Line)
			}
		},
		Command: func(spec json.RawMessage, shard, of int, storeDir string) (*exec.Cmd, error) {
			if string(spec) != `{"chunks":25}` {
				return nil, fmt.Errorf("lease spec not relayed: %s", spec)
			}
			return exec.Command("cp", "-r", prebuilt[shard], storeDir), nil
		},
	})
	if err != nil {
		t.Fatalf("RunAgent: %v", err)
	}
	if res.Agent != "solo" || res.Leases != 2 || res.Completed != 2 || res.Lost != 0 || res.Released != 0 {
		t.Errorf("agent result = %+v", res)
	}
	out := <-waitCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Folded != 4 {
		t.Errorf("folded %d sessions, want 4", out.res.Folded)
	}
}

func get(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	body, code := getCode(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, code)
	}
	return body, code
}

func getCode(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes(), resp.StatusCode
}

// TestAgentTreatsLeaseNotFoundAsDispatcherGone pins the post-campaign
// rebind path: after the fold the dispatcher's port serves the plain
// corpus handler, where the fleet verbs answer 404. An agent polling
// for more work then must conclude the dispatcher is gone — a normal
// end of campaign — not die with a protocol error.
func TestAgentTreatsLeaseNotFoundAsDispatcherGone(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/agents", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(registerResponse{Agent: "late", LeaseTTLMs: 1000, HeartbeatMs: 50})
	})
	srv := httptest.NewServer(mux) // every other path: 404
	defer srv.Close()

	res, err := RunAgent(context.Background(), AgentConfig{
		Dispatcher: srv.URL,
		Dir:        t.TempDir(),
		Command: func(spec json.RawMessage, shard, of int, storeDir string) (*exec.Cmd, error) {
			return nil, fmt.Errorf("no lease should ever be granted here")
		},
	})
	if !errors.Is(err, ErrDispatcherGone) {
		t.Fatalf("lease 404: err = %v, want ErrDispatcherGone", err)
	}
	if res == nil || res.Agent != "late" {
		t.Fatalf("result = %+v, want a registered agent named late", res)
	}
}

// TestNewRefusesFoldTargetItCannotReplace: the fleet dispatcher runs
// the pre-flight a local dispatch runs, so a fold destination the
// campaign could never replace fails New, before any lease is granted,
// with the errors dispatch.Run gives.
func TestNewRefusesFoldTargetItCannotReplace(t *testing.T) {
	other := t.TempDir()
	if err := os.WriteFile(filepath.Join(other, store.CampaignMetaFile), []byte(`{"seed": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	plain := t.TempDir()
	if err := os.WriteFile(filepath.Join(plain, "keep.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ours := t.TempDir()
	if err := os.WriteFile(filepath.Join(ours, store.CampaignMetaFile), testFingerprint, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, foldInto, want string }{
		{"another campaign", other, "different campaign"},
		{"no campaign.json", plain, "no campaign.json"},
		{"a previous fold of ours", ours, ""},
	} {
		d, err := New(Config{
			Shards:       2,
			Dir:          filepath.Join(t.TempDir(), "shards"),
			FoldInto:     c.foldInto,
			Fingerprints: [][]byte{testFingerprint},
		})
		if err == nil {
			d.Close()
		}
		if (c.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: New = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestUploadRefusesShippedSidecars pins the mixed-version refusal: an
// agent built before sidecars stopped travelling ships each segment's
// .vidx with it. The dispatcher answers 400 naming the file, so the
// upload is refused rather than trusted.
func TestUploadRefusesShippedSidecars(t *testing.T) {
	_, srv, _, _ := testDispatcher(t, 1, nil)
	postJSON(t, srv.URL+"/v1/agents", registerRequest{Name: "old"}, nil)
	var lease leaseResponse
	if code := postJSON(t, srv.URL+"/v1/lease", leaseRequest{Agent: "old"}, &lease); code != 200 {
		t.Fatalf("lease: HTTP %d", code)
	}
	src := t.TempDir()
	buildShardStore(t, src, 0, 1)
	url := fmt.Sprintf("%s/v1/upload?agent=old&shard=0&epoch=%d", srv.URL, lease.Epoch)
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(shipWithSidecars(t, src)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, store.ErrShipCorrupt.Error()) ||
		!strings.Contains(body.Error, `"seg-00000.vidx"`) {
		t.Errorf("upload with a sidecar = HTTP %d %q, want 400 naming seg-00000.vidx", resp.StatusCode, body.Error)
	}
}

// shipWithSidecars encodes dir in the shipped-store format the way Ship
// did while sidecars still travelled: every store file but the LOCK,
// sorted by name, the .vidx sidecars included.
func shipWithSidecars(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	stream := []byte("VSHIP1\n\x00")
	files, sidecars := 0, 0
	for _, e := range entries { // ReadDir sorts by name
		if e.Name() == "LOCK" {
			continue
		}
		content, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		stream = binary.LittleEndian.AppendUint32(stream, uint32(len(e.Name())))
		stream = binary.LittleEndian.AppendUint64(stream, uint64(len(content)))
		stream = binary.LittleEndian.AppendUint32(stream, crc32.ChecksumIEEE(content))
		stream = append(append(stream, e.Name()...), content...)
		files++
		if strings.HasSuffix(e.Name(), ".vidx") {
			sidecars++
		}
	}
	if sidecars == 0 {
		t.Fatalf("%s has no sidecar to ship", dir)
	}
	stream = binary.LittleEndian.AppendUint32(stream, 0)
	return binary.LittleEndian.AppendUint32(stream, uint32(files))
}
