package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"veritas"
)

// serveTinyCampaign runs a small campaign into a store and serves its
// query handler from an httptest server.
func serveTinyCampaign(t *testing.T) *httptest.Server {
	t.Helper()
	dir := t.TempDir() + "/campaign.store"
	c, err := veritas.NewCampaign(
		veritas.WithScenarios("lte", "wifi"),
		veritas.WithSessions(2),
		veritas.WithChunks(24),
		veritas.WithSamples(2),
		veritas.WithMatrix([]string{"bba"}, []float64{5, 30}),
		veritas.WithStore(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	h, err := c.Handler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { c.Close() })
	return srv
}

func testConfig(srv *httptest.Server) config {
	mix, err := parseMix(defaultMix)
	if err != nil {
		panic(err)
	}
	return config{
		base:        srv.URL,
		duration:    300 * time.Millisecond,
		concurrency: 2,
		zipfS:       1.2,
		zipfV:       1.0,
		seed:        1,
		mix:         mix,
		client:      srv.Client(),
	}
}

func TestRunAgainstServedStore(t *testing.T) {
	srv := serveTinyCampaign(t)
	cfg := testConfig(srv)
	c, err := discoverWithWait(cfg)
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	if len(c.scenarios) != 2 {
		t.Fatalf("discovered scenarios %v, want 2", c.scenarios)
	}
	if len(c.arms) != 2 {
		t.Fatalf("discovered arms %v, want 2 (bba-5s, bba-30s)", c.arms)
	}
	res := run(cfg, c)
	if res.total == 0 {
		t.Fatal("no requests completed")
	}
	// Every request targets a discovered scenario/arm against a
	// complete store: nothing may fail.
	if res.errors != 0 {
		t.Fatalf("%d/%d requests failed", res.errors, res.total)
	}
	for _, m := range cfg.mix {
		if s := res.byEndpoint[m.endpoint]; s == nil && res.total > 50 {
			t.Errorf("endpoint %s never exercised in %d requests", m.endpoint, res.total)
		}
	}
	var human bytes.Buffer
	res.writeSummary(&human)
	if !strings.Contains(human.String(), "req/s") {
		t.Errorf("summary missing throughput: %q", human.String())
	}
}

func TestParseMix(t *testing.T) {
	if _, err := parseMix("report=4,cdf=1"); err != nil {
		t.Errorf("valid mix rejected: %v", err)
	}
	for _, bad := range []string{"", "bogus=1", "report", "report=-1", "report=1,report=2", "report=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("mix %q accepted, want error", bad)
		}
	}
	mix, err := parseMix("cdf=2, report=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0].endpoint != "cdf" || mix[1].endpoint != "report" {
		t.Errorf("mix order not preserved: %+v", mix)
	}
}

func TestConfigValidate(t *testing.T) {
	mix, _ := parseMix(defaultMix)
	good := config{duration: time.Second, concurrency: 1, zipfS: 1.2, zipfV: 1, mix: mix}
	if err := good.validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := good
	bad.zipfS = 1
	if err := bad.validate(); err == nil {
		t.Error("zipf-s=1 accepted")
	}
	bad = good
	bad.concurrency = 0
	if err := bad.validate(); err == nil {
		t.Error("concurrency=0 accepted")
	}
}
