package veritas_test

// Observability coverage: the determinism pin (reports byte-identical
// with telemetry on and off), the Campaign.Telemetry snapshot, and the
// serving layer's /metrics and /v1/status endpoints.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"veritas"
)

// TestTelemetryNeverPerturbsReports is the load-bearing guarantee of
// the telemetry plane: instrumentation observes the computation but
// never feeds back into it. The same campaign runs with the registry
// on (default) and off (WithoutTelemetry); Report JSON and the served
// /v1/report body must be byte-identical.
func TestTelemetryNeverPerturbsReports(t *testing.T) {
	run := func(opts ...veritas.CampaignOption) ([]byte, []byte) {
		t.Helper()
		c, err := veritas.NewCampaign(append(quickOptions(), opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Report()
		if err != nil {
			t.Fatal(err)
		}
		repJSON, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.Handler()
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(h)
		defer srv.Close()
		resp, err := http.Get(srv.URL + "/v1/report")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return repJSON, body
	}

	onRep, onBody := run(veritas.WithStore(t.TempDir()))
	offRep, offBody := run(veritas.WithStore(t.TempDir()), veritas.WithoutTelemetry())
	if !bytes.Equal(onRep, offRep) {
		t.Error("Report JSON differs with telemetry on vs off")
	}
	if !bytes.Equal(onBody, offBody) {
		t.Error("served /v1/report body differs with telemetry on vs off")
	}
}

func TestCampaignTelemetrySnapshot(t *testing.T) {
	c, err := veritas.NewCampaign(append(quickOptions(), veritas.WithStore(t.TempDir()))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := c.Telemetry()

	sessions := snap.Counters["veritas_engine_sessions_completed_total"]
	if sessions == 0 {
		t.Fatal("no sessions counted")
	}
	if appends := snap.Counters["veritas_store_appends_total"]; appends != sessions {
		t.Errorf("store appends = %d, sessions = %d; want equal", appends, sessions)
	}
	if got := snap.Gauges["veritas_store_sessions"]; got != float64(sessions) {
		t.Errorf("store sessions gauge = %v, want %d", got, sessions)
	}
	for _, stage := range []string{"simulate", "abduct", "replay"} {
		h, ok := snap.Histograms[`veritas_engine_stage_seconds{stage="`+stage+`"}`]
		if !ok || h.Count == 0 {
			t.Errorf("stage %q histogram empty (ok=%v count=%d)", stage, ok, h.Count)
		}
	}
	if h := snap.Histograms["veritas_engine_session_seconds"]; h.Count != sessions {
		t.Errorf("session histogram count = %d, want %d", h.Count, sessions)
	}

	// With telemetry off the snapshot is empty, not a panic.
	off, err := veritas.NewCampaign(append(quickOptions(), veritas.WithoutTelemetry())...)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if _, err := off.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := off.Telemetry(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("WithoutTelemetry snapshot not empty: %+v", s)
	}
}

func TestServeMetricsAndStatus(t *testing.T) {
	c, err := veritas.NewCampaign(append(quickOptions(), veritas.WithStore(t.TempDir()))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	h, err := c.Handler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Generate some request traffic so per-endpoint metrics are live.
	if _, err := http.Get(srv.URL + "/v1/report"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/status: %d", resp.StatusCode)
	}
	var status struct {
		Sessions  int `json:"sessions"`
		Scenarios int `json:"scenarios"`
		Telemetry struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"telemetry"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Sessions == 0 || status.Scenarios == 0 {
		t.Errorf("status = %+v, want non-zero sessions and scenarios", status)
	}
	if status.Telemetry.Counters["veritas_engine_sessions_completed_total"] == 0 {
		t.Error("status telemetry missing engine counters")
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE veritas_engine_stage_seconds histogram",
		"veritas_store_appends_total",
		"veritas_store_sessions",
		`veritas_serve_requests_total{path="/v1/report"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestStoreBackedReportReadsRowsOnce pins that a store-backed report is
// built from the store's partial aggregates: the first Report reduces
// the rows this process appended, every later Report or WriteReport
// re-reads none.
func TestStoreBackedReportReadsRowsOnce(t *testing.T) {
	c, err := veritas.NewCampaign(append(quickOptions(), veritas.WithStore(t.TempDir()))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	reads := func() uint64 { return c.Telemetry().Counters["veritas_store_reads_total"] }
	before := reads()
	if _, err := c.Report(); err != nil {
		t.Fatal(err)
	}
	first := reads()
	if first == before {
		t.Error("the first Report read no row: the counter cannot witness the second")
	}
	if _, err := c.Report(); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteReport(io.Discard); err != nil {
		t.Fatal(err)
	}
	if again := reads(); again != first {
		t.Errorf("veritas_store_reads_total moved %d -> %d on a repeated report", first, again)
	}
}
