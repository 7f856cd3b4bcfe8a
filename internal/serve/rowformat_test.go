package serve

import (
	"bytes"
	"net/http"
	"path/filepath"
	"testing"

	"veritas/internal/store"
)

// TestBodiesDoNotDependOnTheRowFormat: the store's two checked-in
// fixtures hold the same six appends, store_pr18 as the JSON rows of its
// day and store_pr21 as binary ones. Nothing this tier serves may tell
// them apart — every float was stored bit for bit.
func TestBodiesDoNotDependOnTheRowFormat(t *testing.T) {
	handlers := make(map[string]http.Handler)
	for _, name := range []string{"store_pr18", "store_pr21"} {
		st, err := store.Open(filepath.Join("..", "store", "testdata", name), store.Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		handlers[name] = New(st)
	}
	paths := []string{"/v1/sessions", "/v1/scenarios", "/v1/report", "/v1/report?scenario=lte",
		"/v1/report/percentiles?arm=bba-5s&percentiles=10,50,90", "/v1/report/cdf?arm=bba-5s&metric=ssim"}
	for _, id := range []string{"fcc-000", "lte-001", "fcc-002", "lte-003", "fcc-004"} {
		paths = append(paths, "/v1/sessions/"+id)
	}
	for _, path := range paths {
		codeJSON, fromJSON := get(t, handlers["store_pr18"], path)
		codeBin, fromBinary := get(t, handlers["store_pr21"], path)
		if codeJSON != http.StatusOK || codeBin != http.StatusOK {
			t.Errorf("%s: status %d from the JSON store, %d from the binary one: %s", path, codeJSON, codeBin, fromBinary)
		} else if !bytes.Equal(fromJSON, fromBinary) {
			t.Errorf("%s differs by row format:\n JSON store: %s\nbinary store: %s", path, fromJSON, fromBinary)
		}
	}
}
