package veritas

// Facade-level coverage of the fleet layer. The engine's own contract
// (worker-count determinism, power-cache accounting, cancellation) is tested
// exhaustively in internal/engine; these tests pin the public surface.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"veritas/internal/engine"
	"veritas/internal/engine/enginetest"
	"veritas/internal/serve"
)

func TestRunFleetFacade(t *testing.T) {
	ccfg := engine.CorpusConfig{SessionsPer: 1, NumChunks: 30, Seed: 1}
	corpus, err := engine.BuildCorpus(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != len(Scenarios()) {
		t.Fatalf("corpus has %d sessions, want one per scenario (%d)", len(corpus), len(Scenarios()))
	}
	arms, err := engine.BuildMatrix(ccfg, []string{"bba", "mpc"}, []float64{5, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(arms) != 4 {
		t.Fatalf("matrix has %d arms, want 4", len(arms))
	}

	res, err := engine.Run(context.Background(), engine.Config{Workers: 2, Samples: 2, Seed: 1}, corpus, arms)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != len(corpus) {
		t.Fatalf("got %d session results, want %d", len(res.Sessions), len(corpus))
	}
	for _, s := range res.Sessions {
		if len(s.Arms) != len(arms) {
			t.Errorf("%s: %d arm outcomes, want %d", s.ID, len(s.Arms), len(arms))
		}
		for _, oc := range s.Arms {
			if !oc.HasTruth {
				t.Errorf("%s/%s: synthetic corpus should have oracle outcomes", s.ID, oc.Name)
			}
			if len(oc.Samples) != 2 {
				t.Errorf("%s/%s: %d samples, want 2", s.ID, oc.Name, len(oc.Samples))
			}
		}
	}
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	for _, arm := range []string{"bba-5s", "bba-30s", "mpc-5s", "mpc-30s"} {
		if !strings.Contains(sb.String(), "arm: "+arm) {
			t.Errorf("report missing arm %s", arm)
		}
	}
}

func TestNewArm(t *testing.T) {
	arm, err := NewArm("bba", WhatIf{NewABR: NewBBA})
	if err != nil {
		t.Fatal(err)
	}
	if arm.Name != "bba" || arm.Setting.Video == nil || arm.Setting.BufferCap != 5 {
		t.Errorf("arm not defaulted: %+v", arm)
	}
	if _, err := NewArm("bad", WhatIf{}); err == nil {
		t.Error("WhatIf without ABR should error")
	}
}

func TestFleetMatrixValidation(t *testing.T) {
	ccfg := engine.CorpusConfig{NumChunks: 30}
	if _, err := engine.BuildMatrix(ccfg, nil, []float64{5}); err == nil {
		t.Error("empty ABR list should error")
	}
	if _, err := engine.BuildMatrix(ccfg, []string{"vhs"}, []float64{5}); err == nil {
		t.Error("unknown ABR should error")
	}
	if _, err := engine.BuildMatrix(ccfg, []string{"bba"}, []float64{-1}); err == nil {
		t.Error("negative buffer should error")
	}
}

func TestStoreFacade(t *testing.T) {
	ccfg := engine.CorpusConfig{SessionsPer: 1, NumChunks: 25, Seed: 2}
	corpus, err := engine.BuildCorpus(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	arms, err := engine.BuildMatrix(ccfg, []string{"bba"}, []float64{5})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := OpenStore(dir, FleetStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(context.Background(), engine.Config{Workers: 2, Samples: 2, Seed: 1, Sink: st}, corpus, arms)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(corpus) {
		t.Fatalf("store holds %d sessions, want %d", st.Len(), len(corpus))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen read-only and check the HTTP layer returns the same
	// aggregate report JSON as the oracle over the run's in-RAM rows.
	ro, err := OpenStore(dir, FleetStoreOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	srv := httptest.NewServer(serve.New(ro, serve.WithCacheEntries(16)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := enginetest.OracleJSON(t, enginetest.ResultRows(res), "")
	if !bytes.Equal(want, got) {
		t.Fatalf("served report != in-RAM report\nwant %s\ngot  %s", want, got)
	}

	// Compaction keeps every session.
	merged := filepath.Join(t.TempDir(), "merged")
	n, err := MergeStores(merged, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(corpus) {
		t.Fatalf("MergeStores folded %d sessions, want %d", n, len(corpus))
	}
}

// TestWorkerSpecIgnoresRetiredNoCacheKey is the wire half of the
// backward-compatibility rule: a dispatcher or agent one version behind
// still sends "nocache" in its lease/worker spec. The knob never
// changed output, so the worker must decode the spec, ignore the key
// and compute exactly the rows it computes without it — which would
// break if spec decoding ever turned strict (DisallowUnknownFields).
func TestWorkerSpecIgnoresRetiredNoCacheKey(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	rows := func(extra string) []FleetRow {
		t.Helper()
		dir := t.TempDir()
		raw := fmt.Sprintf(`{"scenarios":["lte"],"sessions":2,"chunks":12,"samples":1,"abrs":["bba"],"buffers":[30],%s"notelemetry":true,"notracing":true,"shard":0,"of":1,"store":%q}`, extra, dir)
		if code := dispatchWorker(raw, devnull, os.Stderr); code != 0 {
			t.Fatalf("worker exited %d on spec %s", code, raw)
		}
		st, err := OpenStore(dir, FleetStoreOptions{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var out []FleetRow
		if err := st.Scan(func(r FleetRow) error { out = append(out, r); return nil }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := rows("")
	if len(want) != 2 {
		t.Fatalf("worker stored %d rows, want 2", len(want))
	}
	if got := rows(`"nocache":true,`); !reflect.DeepEqual(got, want) {
		t.Error(`a spec carrying "nocache":true computed different rows`)
	}
}
