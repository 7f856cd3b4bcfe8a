package serve

import (
	"net/http"
	"strings"
	"testing"

	"veritas/internal/store"
)

// TestWatchServeETagPerGeneration is the satellite-4 pin: served over
// HTTP, a watch store's /v1/report ETag changes exactly once per
// appended row (one generation bump), conditional requests answer 304
// while the store is quiet, and a stale validator answers 200 again.
func TestWatchServeETagPerGeneration(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fillStore(t, w, 2, "fcc")

	ws, err := store.OpenWatch(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	h := New(ws) // watch interval 0: refresh every request

	etagOf := func() string {
		t.Helper()
		rec := doGet(t, h, "/v1/report", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/report: %d %s", rec.Code, rec.Body.Bytes())
		}
		tag := rec.Header().Get("ETag")
		if !strings.HasPrefix(tag, `"report-`) {
			t.Fatalf("ETag %q is not generation-keyed", tag)
		}
		return tag
	}

	e1 := etagOf()
	if again := etagOf(); again != e1 {
		t.Fatalf("ETag moved with no writes: %q -> %q", e1, again)
	}
	if rec := doGet(t, h, "/v1/report", e1); rec.Code != http.StatusNotModified {
		t.Fatalf("conditional GET with current ETag: %d, want 304", rec.Code)
	}

	// One append = one generation = one ETag step, observed through a
	// watch-triggered incremental reopen, not a fresh handler.
	if err := w.Append(testRow(7, "fcc")); err != nil {
		t.Fatal(err)
	}
	e2 := etagOf()
	if e2 == e1 {
		t.Fatal("ETag did not move after an append")
	}
	if again := etagOf(); again != e2 {
		t.Fatalf("ETag moved twice for one append: %q -> %q", e2, again)
	}
	if rec := doGet(t, h, "/v1/report", e1); rec.Code != http.StatusOK {
		t.Fatalf("conditional GET with stale ETag: %d, want 200", rec.Code)
	}
	if rec := doGet(t, h, "/v1/report", e2); rec.Code != http.StatusNotModified {
		t.Fatalf("conditional GET with fresh ETag: %d, want 304", rec.Code)
	}
}
