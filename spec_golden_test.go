package veritas_test

// Byte goldens of the campaign definition's two wires, recorded at the
// commit before the settings moved into one campaignSpec: campaign.json
// on disk (every scenario spelling) and the spec a fleet lease carries.
// The worker-environment golden builds the worker command from
// unexported parts and lives in spec_test.go. A store, a dispatcher or an agent one version
// behind must keep reading what this version writes, so these strings
// change only with a migration story.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"veritas"
)

// goldenOptions sets every result-shaping option to a non-default
// value, plus the execution knobs that ride in the worker spec.
func goldenOptions() []veritas.CampaignOption {
	return []veritas.CampaignOption{
		veritas.WithScenarios("lte", "wifi"),
		veritas.WithSessions(3),
		veritas.WithChunks(40),
		veritas.WithSamples(2),
		veritas.WithSeed(7),
		veritas.WithDeployedBuffer(10),
		veritas.WithMatrix([]string{"bba", "bola"}, []float64{5, 30}),
		veritas.WithWorkers(2),
		veritas.WithoutTracing(),
	}
}

func TestCampaignJSONGolden(t *testing.T) {
	const defaulted = `{
  "Scenarios": null,
  "SessionsPer": 8,
  "Chunks": 0,
  "Samples": 5,
  "Seed": 0,
  "Buffer": 5,
  "ABRs": null,
  "Buffers": null
}`
	const explicitDefault = `{
  "Scenarios": [
    "fcc",
    "lte",
    "wifi",
    "square"
  ],
  "SessionsPer": 8,
  "Chunks": 0,
  "Samples": 5,
  "Seed": 0,
  "Buffer": 5,
  "ABRs": null,
  "Buffers": null
}`
	const subset = `{
  "Scenarios": [
    "lte",
    "wifi"
  ],
  "SessionsPer": 3,
  "Chunks": 40,
  "Samples": 2,
  "Seed": 7,
  "Buffer": 10,
  "ABRs": [
    "bba",
    "bola"
  ],
  "Buffers": [
    5,
    30
  ]
}`
	for _, tc := range []struct {
		name string
		opts []veritas.CampaignOption
		want string
	}{
		{"defaulted", nil, defaulted},
		{"explicit defaults", []veritas.CampaignOption{
			veritas.WithScenarios(veritas.Scenarios()...),
			veritas.WithSessions(8), veritas.WithSamples(5), veritas.WithDeployedBuffer(5),
		}, explicitDefault},
		{"explicit subset", goldenOptions(), subset},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := veritas.NewCampaign(append(tc.opts, veritas.WithStore(dir))...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Store(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "campaign.json"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Errorf("campaign.json moved\nwant %s\ngot  %s", tc.want, got)
			}
		})
	}
}

// TestFleetLeaseSpecGolden asks a live ServeFleet for a lease the way
// an agent does and compares the spec it hands out byte for byte.
func TestFleetLeaseSpecGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []veritas.CampaignOption
		want string
	}{
		{"defaulted", nil, `{"shard":0,"of":0,"store":""}`},
		{"every setting", goldenOptions(),
			`{"scenarios":["lte","wifi"],"sessions":3,"chunks":40,"samples":2,"seed":7,"buffer":10,"abrs":["bba","bola"],"buffers":[5,30],"workers":2,"notracing":true,"shard":0,"of":0,"store":""}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			ready := make(chan string, 1)
			c, err := veritas.NewCampaign(append(tc.opts,
				veritas.WithStore(filepath.Join(t.TempDir(), "c.store")),
				veritas.WithFleet("127.0.0.1:0"),
				veritas.WithFleetReady(func(addr string) { ready <- addr }),
			)...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			served := make(chan error, 1)
			go func() {
				_, err := c.ServeFleet(ctx, 2)
				served <- err
			}()
			var base string
			select {
			case addr := <-ready:
				base = "http://" + addr
			case err := <-served:
				t.Fatalf("ServeFleet returned before it listened: %v", err)
			}
			post := func(path, body string, into any) {
				t.Helper()
				resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("POST %s: HTTP %d", path, resp.StatusCode)
				}
				if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
					t.Fatal(err)
				}
			}
			var reg struct {
				Agent string `json:"agent"`
			}
			post("/v1/agents", `{"name":"golden"}`, &reg)
			var lease struct {
				Status string          `json:"status"`
				Spec   json.RawMessage `json:"spec"`
			}
			post("/v1/lease", `{"agent":"`+reg.Agent+`"}`, &lease)
			if lease.Status != "lease" {
				t.Fatalf("lease status %q", lease.Status)
			}
			if !bytes.Equal(lease.Spec, []byte(tc.want)) {
				t.Errorf("lease spec moved\nwant %s\ngot  %s", tc.want, lease.Spec)
			}
			cancel()
			<-served
		})
	}
}
