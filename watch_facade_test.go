package veritas_test

// Facade coverage for watch mode: option validation, tailing a store
// that does not exist yet, and the run-refusal contract.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"veritas"
)

func TestWatchOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []veritas.CampaignOption
		want string
	}{
		{"watch without store", []veritas.CampaignOption{veritas.WithWatch()}, "needs WithStore"},
		{"interval without watch", []veritas.CampaignOption{
			veritas.WithStore(t.TempDir()), veritas.WithWatchInterval(time.Second),
		}, "needs WithWatch"},
		{"negative interval", []veritas.CampaignOption{
			veritas.WithStore(t.TempDir()), veritas.WithWatch(), veritas.WithWatchInterval(-time.Second),
		}, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := veritas.NewCampaign(tc.opts...)
			if err == nil {
				t.Fatal("bad options accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestWatchCampaignTailsAnotherCampaignsStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign.store")

	// The watcher attaches before the store exists: a dashboard can
	// come up before the campaign it watches.
	w, err := veritas.NewCampaign(veritas.WithStore(dir), veritas.WithWatch())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h, err := w.Handler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/report")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp.StatusCode, string(buf[:n])
	}
	if code, body := get(); code != http.StatusOK || !strings.Contains(body, `"Sessions":0`) {
		t.Fatalf("watch over missing store: %d %s", code, body)
	}

	// A writer campaign fills the store; the same watch handler now
	// serves the grown corpus.
	c, err := veritas.NewCampaign(append(quickOptions(), veritas.WithStore(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, body := get()
	if code != http.StatusOK {
		t.Fatalf("watch after run: %d", code)
	}
	if strings.Contains(body, `"Sessions":0`) {
		t.Fatalf("watch handler never saw the campaign's rows: %s", body)
	}

	// A watch campaign must refuse to run, with a watch-specific hint.
	if _, err := w.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "WithWatch") {
		t.Errorf("watch campaign Run error = %v, want a WithWatch mention", err)
	}
}
