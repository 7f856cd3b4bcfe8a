package dispatch

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

// scanned feeds stdout through scanStdout and returns the events.
func scanned(stdout []byte) []Event {
	var events []Event
	scanStdout(bytes.NewReader(stdout), Worker{Shard: 1, Shards: 2}, 42, func(e Event) { events = append(events, e) })
	return events
}

// TestMessageKeepsTheParentsBytes: testdata/worker_stdout_pr18.ndjson
// is the stdout of a worker built from the commit before Message
// existed (two progress lines, one telemetry, one traces — then spelt
// as three anonymous structs). Decoding each line into Message and
// encoding it again must give the line back byte for byte, and
// scanStdout must read each as the event it always was.
func TestMessageKeepsTheParentsBytes(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "worker_stdout_pr18.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := []EventType{EventProgress, EventProgress, EventTelemetry, EventTraces}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	n := 0
	for ; sc.Scan(); n++ {
		line := sc.Bytes()
		var msg Message
		if err := json.Unmarshal(line, &msg); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		var again bytes.Buffer
		if err := json.NewEncoder(&again).Encode(msg); err != nil {
			t.Fatal(err)
		}
		if got := bytes.TrimSuffix(again.Bytes(), []byte("\n")); !bytes.Equal(got, line) {
			t.Errorf("line %d re-encodes differently:\n got %s\nwant %s", n, got, line)
		}
		if ev := scanned(line); n < len(want) && (len(ev) != 1 || ev[0].Type != want[n]) {
			t.Errorf("line %d scanned as %+v, want one %s event", n, ev, want[n])
		}
	}
	if err := sc.Err(); err != nil || n != len(want) {
		t.Fatalf("read %d lines (err %v), want %d", n, err, len(want))
	}
}

// TestMessageRoundTripsThroughScanStdout: what the worker side encodes
// is what the supervisor side emits, for each kind — and a progress line
// is spelt exactly as the protocol documents it.
func TestMessageRoundTripsThroughScanStdout(t *testing.T) {
	snap := telemetry.Snapshot{Counters: map[string]uint64{"veritas_store_appends_total": 3}}
	traces := []tracing.Trace{{Kind: "session", ID: "fcc-000", Shard: 1}}
	var stdout bytes.Buffer
	enc := json.NewEncoder(&stdout)
	for _, msg := range []Message{
		{Type: "progress", Shard: 1, Done: 4, Total: 6},
		{Type: "telemetry", Shard: 1, Snapshot: &snap},
		{Type: "traces", Shard: 1, Traces: traces},
	} {
		if err := enc.Encode(msg); err != nil {
			t.Fatal(err)
		}
	}
	if first, _, _ := strings.Cut(stdout.String(), "\n"); first != `{"type":"progress","shard":1,"done":4,"total":6}` {
		t.Errorf("progress line is spelt %s", first)
	}
	ev := scanned(stdout.Bytes())
	if len(ev) != 3 {
		t.Fatalf("scanned %d events, want 3: %+v", len(ev), ev)
	}
	if ev[0].Type != EventProgress || ev[0].Done != 4 || ev[0].Total != 6 || ev[0].Shard != 1 || ev[0].PID != 42 {
		t.Errorf("progress event = %+v", ev[0])
	}
	if ev[1].Type != EventTelemetry || ev[1].Telemetry == nil || ev[1].Telemetry.Counters["veritas_store_appends_total"] != 3 {
		t.Errorf("telemetry event = %+v", ev[1])
	}
	if ev[2].Type != EventTraces || len(ev[2].Traces) != 1 || ev[2].Traces[0].ID != "fcc-000" {
		t.Errorf("traces event = %+v", ev[2])
	}
}
