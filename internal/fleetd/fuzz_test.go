package fleetd

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzControlBody: whatever bytes reach the dispatcher as a control
// body, it answers with a status the protocol defines — 200, 400, 409,
// 410 or 413 — and never panics or fails with a 500. Each input is
// POSTed to all four verbs in protocol order on a fresh dispatcher, so
// a body that names an agent, a shard and an epoch registers, leases,
// heartbeats (relaying whatever progress, telemetry and traces it
// carries into the fleet view) and releases for real. CI fuzzes it
// with `go test -run '^$' -fuzz '^FuzzControlBody$' -fuzztime 10s`.
func FuzzControlBody(f *testing.F) {
	f.Add([]byte(`{"name":"a","agent":"a","shard":0,"epoch":1,"done":1,"total":2,"error":"boom"}`))
	f.Add([]byte(`{"agent":"a","shard":0,"epoch":1,"snapshot":{"counters":{"veritas_sessions_total":3},` +
		`"gauges":{"g":1.5},"histograms":{"h":{"bounds":[1,2],"counts":[1,0,2],"count":3,"sum":4}}},` +
		`"traces":[{"kind":"session","id":"fcc-000","spans":[{"name":"simulate"}]}]}`))
	f.Add([]byte(`{"agent":"a","shard":-1,"epoch":1}`))
	f.Add([]byte(`{"agent":"a","shard":9999999999,"epoch":-7}`))
	f.Add([]byte(`{"agent":"","name":""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,`))
	f.Add([]byte(nil))
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusConflict: true,
		http.StatusGone: true, http.StatusRequestEntityTooLarge: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		d, err := New(Config{Shards: 2, Dir: t.TempDir(), LeaseTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		h := d.Handler()
		for _, path := range []string{"/v1/agents", "/v1/lease", "/v1/heartbeat", "/v1/release"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if !allowed[rec.Code] {
				t.Fatalf("POST %s answered %d: %s", path, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
