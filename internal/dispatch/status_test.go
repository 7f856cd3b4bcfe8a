package dispatch

import (
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sync"

	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

func TestStatusTracksShardLifecycle(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := NewStatus(2, reg, nil)

	st.Handle(Event{Type: EventStart, Shard: 0, Attempt: 0, PID: 41})
	st.Handle(Event{Type: EventStart, Shard: 1, Attempt: 0, PID: 42})
	st.Handle(Event{Type: EventProgress, Shard: 0, Done: 3, Total: 6})
	st.Handle(Event{Type: EventProgress, Shard: 1, Done: 2, Total: 6})
	st.Handle(Event{Type: EventExit, Shard: 1, Err: errors.New("signal: killed")})
	st.Handle(Event{Type: EventRestart, Shard: 1, Attempt: 1, Delay: 500 * time.Millisecond})
	st.Handle(Event{Type: EventTelemetry, Shard: 0, Telemetry: &telemetry.Snapshot{
		Counters: map[string]uint64{"veritas_engine_sessions_completed_total": 3},
	}})
	// Events for shards outside the fleet must be ignored, not panic.
	st.Handle(Event{Type: EventProgress, Shard: 9, Done: 1, Total: 1})

	snap := st.Snapshot()
	if snap.Done != 5 || snap.Total != 12 || snap.Restarts != 1 {
		t.Errorf("fleet totals = %d/%d restarts %d, want 5/12 restarts 1",
			snap.Done, snap.Total, snap.Restarts)
	}
	s0, s1 := snap.Shards[0], snap.Shards[1]
	if s0.State != "running" || s0.PID != 41 || s0.Attempt != 1 || s0.Done != 3 {
		t.Errorf("shard 0 = %+v", s0)
	}
	if s1.State != "backoff" || s1.Restarts != 1 || s1.LastError != "signal: killed" {
		t.Errorf("shard 1 = %+v", s1)
	}

	// The merged telemetry view: supervisor gauges plus the worker's
	// streamed snapshot.
	tel := snap.Telemetry
	if tel.Counters["veritas_engine_sessions_completed_total"] != 3 {
		t.Errorf("worker snapshot not merged: %v", tel.Counters)
	}
	if tel.Gauges[`veritas_dispatch_shard_sessions_done{shard="0"}`] != 3 {
		t.Errorf("supervisor gauges missing: %v", tel.Gauges)
	}
	if tel.Gauges[`veritas_dispatch_shard_backoff{shard="1"}`] != 0.5 {
		t.Errorf("backoff gauge = %v, want 0.5", tel.Gauges[`veritas_dispatch_shard_backoff{shard="1"}`])
	}
	if tel.Counters["veritas_dispatch_restarts_total"] != 1 {
		t.Errorf("restart counter = %v", tel.Counters["veritas_dispatch_restarts_total"])
	}
	if tel.Counters[`veritas_dispatch_worker_exits_total{shard="1",outcome="crash"}`] != 1 {
		t.Errorf("exit counter missing: %v", tel.Counters)
	}

	// A later worker snapshot replaces the previous one (latest wins,
	// no double counting).
	st.Handle(Event{Type: EventTelemetry, Shard: 0, Telemetry: &telemetry.Snapshot{
		Counters: map[string]uint64{"veritas_engine_sessions_completed_total": 5},
	}})
	if got := st.Snapshot().Telemetry.Counters["veritas_engine_sessions_completed_total"]; got != 5 {
		t.Errorf("replacement snapshot merged to %d, want 5", got)
	}
}

func TestStatusWithoutRegistry(t *testing.T) {
	st := NewStatus(1, nil, nil)
	st.Handle(Event{Type: EventStart, Shard: 0, PID: 7})
	st.Handle(Event{Type: EventProgress, Shard: 0, Done: 1, Total: 2})
	st.Handle(Event{Type: EventExit, Shard: 0})
	st.Handle(Event{Type: EventFold, Shard: -1, Done: 2})
	snap := st.Snapshot()
	if snap.Shards[0].State != "done" || snap.Done != 1 || snap.Folded != 2 {
		t.Errorf("snapshot without registry = %+v", snap)
	}
}

// testPlane builds a Plane of shards shards over a fresh directory, for
// serving its Status view.
func testPlane(t *testing.T, shards int, reg *telemetry.Registry, trc *tracing.Tracer) *Plane {
	t.Helper()
	p, err := NewPlane(Config{Shards: shards, Dir: t.TempDir(), Telemetry: reg, Tracer: trc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestStatusHandler(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := testPlane(t, 1, reg, nil)
	p.Emit(Event{Type: EventStart, Shard: 0, PID: 9})
	p.Emit(Event{Type: EventProgress, Shard: 0, Done: 4, Total: 4})
	srv := httptest.NewServer(p.Routes())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("status content type = %q", ct)
	}
	var snap StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Done != 4 || len(snap.Shards) != 1 || snap.Shards[0].State != "running" {
		t.Errorf("served snapshot = %+v", snap)
	}

	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `veritas_dispatch_shard_sessions_done{shard="0"} 4`) {
		t.Errorf("metrics text missing shard gauge:\n%s", body)
	}
}

func TestStatusMergesWorkerTraces(t *testing.T) {
	trc := tracing.New(4)
	p := testPlane(t, 2, nil, trc)
	st := p.status

	wall := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	mk := func(id string, shard int, dur float64) tracing.Trace {
		return tracing.Trace{Kind: "session", ID: id, Shard: shard, Wall: wall, Dur: dur}
	}
	st.Handle(Event{Type: EventTraces, Shard: 0, Traces: []tracing.Trace{mk("s0", 0, 0.5)}})
	st.Handle(Event{Type: EventTraces, Shard: 1, Traces: []tracing.Trace{mk("s1", 1, 0.9)}})
	// A re-streamed cumulative set replaces, never duplicates.
	st.Handle(Event{Type: EventTraces, Shard: 0, Traces: []tracing.Trace{mk("s0", 0, 0.5), mk("s2", 0, 0.1)}})

	got := st.Traces()
	if len(got) != 3 {
		t.Fatalf("merged %d traces, want 3: %+v", len(got), got)
	}
	if got[0].ID != "s1" || got[1].ID != "s0" || got[2].ID != "s2" {
		t.Errorf("merged order = %s, %s, %s; want s1, s0, s2 (slowest first)",
			got[0].ID, got[1].ID, got[2].ID)
	}

	// The /v1/trace endpoint serves the merged set as parseable Chrome
	// trace-event JSON.
	srv := httptest.NewServer(p.Routes())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/v1/trace content type = %q", ct)
	}
	var file struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&file); err != nil {
		t.Fatalf("/v1/trace does not parse: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Error("/v1/trace served no events")
	}
}

// TestStatusConcurrentScrapeDuringTransitions is the torn-snapshot
// gate: /v1/status, /metrics and /v1/trace are scraped concurrently
// while the supervisor drives shards through the full
// start -> progress -> crash -> restart -> fold lifecycle. Run under
// -race; every scrape must parse and be internally consistent.
func TestStatusConcurrentScrapeDuringTransitions(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := testPlane(t, 3, reg, tracing.New(8))
	st := p.status
	srv := httptest.NewServer(p.Routes())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrape := func(path string, check func([]byte) error) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("%s: %v", path, err)
				return
			}
			if err := check(body); err != nil {
				t.Errorf("%s: %v (body %.200s)", path, err, body)
				return
			}
		}
	}
	wg.Add(3)
	go scrape("/v1/status", func(b []byte) error {
		var snap StatusSnapshot
		if err := json.Unmarshal(b, &snap); err != nil {
			return err
		}
		if len(snap.Shards) != 3 {
			return errors.New("torn snapshot: shard list truncated")
		}
		if snap.Done > snap.Total {
			return errors.New("torn snapshot: done exceeds total")
		}
		return nil
	})
	go scrape("/metrics", func(b []byte) error {
		if len(b) == 0 {
			return errors.New("empty exposition")
		}
		return nil
	})
	go scrape("/v1/trace", func(b []byte) error {
		var file struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		return json.Unmarshal(b, &file)
	})

	wall := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for round := 0; round < 50; round++ {
		for shard := 0; shard < 3; shard++ {
			st.Handle(Event{Type: EventStart, Shard: shard, Attempt: round, PID: 100 + shard})
			st.Handle(Event{Type: EventProgress, Shard: shard, Done: round, Total: 50})
			st.Handle(Event{Type: EventTelemetry, Shard: shard, Telemetry: &telemetry.Snapshot{
				Counters: map[string]uint64{"veritas_engine_sessions_completed_total": uint64(round)},
			}})
			st.Handle(Event{Type: EventTraces, Shard: shard, Traces: []tracing.Trace{
				{Kind: "session", ID: "s", Shard: shard, Wall: wall, Dur: float64(round) / 100},
			}})
			st.Handle(Event{Type: EventExit, Shard: shard, Err: errors.New("crash")})
			st.Handle(Event{Type: EventRestart, Shard: shard, Attempt: round + 1, Delay: time.Millisecond})
			st.Handle(Event{Type: EventStart, Shard: shard, Attempt: round + 1, PID: 200 + shard})
			st.Handle(Event{Type: EventExit, Shard: shard})
		}
		st.Handle(Event{Type: EventFold, Shard: -1, Done: 3 * (round + 1)})
	}
	close(stop)
	wg.Wait()
}
