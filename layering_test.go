package veritas_test

// Layering pins, checked from source so they run wherever the tests do:
// the store package stays free of the HTTP tier (store stores, serve
// serves), no deprecated shim or staticcheck suppression creeps back
// into the module, every report is reduced by engine.Partials, and each
// on-disk format is known to one file of internal/store.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestStoreDoesNotImportTheHTTPTier(t *testing.T) {
	banned := map[string]bool{
		"net/http":               true,
		"net/url":                true,
		"container/list":         true,
		"veritas/internal/stats": true,
		"veritas/internal/serve": true,
	}
	files, err := filepath.Glob(filepath.Join("internal", "store", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no source found under internal/store (err %v)", err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
				t.Errorf("%s imports %s: the HTTP query tier lives in internal/serve", name, path)
			}
		}
	}
}

func TestNoDeprecatedShimsOrLintSuppressions(t *testing.T) {
	// Spelled in pieces so this file passes its own check.
	markers := []string{"Deprecated" + ":", "lint:file-ignore " + "SA1019"}
	// The emission memo and its on/off knob were deleted on every
	// surface (engine, facade, worker spec, both CLIs, telemetry); none
	// of its names may come back outside tests.
	memoNames := []string{"estimatorCache", "DisableCache", "WithoutMemoization", "NoCache", `"nocache"`, "emission_cache"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ is a module of its own; dot-directories are not source.
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range markers {
			if strings.Contains(string(src), m) {
				t.Errorf("%s contains %q: delete the shim (every consumer is in-tree) rather than deprecate or suppress it", path, m)
			}
		}
		if !strings.HasSuffix(path, "_test.go") {
			for _, m := range memoNames {
				if strings.Contains(string(src), m) {
					t.Errorf("%s mentions %q: the emission memo is gone and nothing replaces its knob", path, m)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAggregatorIsOracleOnly pins the one-reducer rule: every report is
// built from engine.Partials, so outside internal/engine (where the
// row-at-a-time oracle and its test-support wrapper live) no non-test
// source names the Aggregator, and the store exports no Aggregate*.
func TestAggregatorIsOracleOnly(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == filepath.Join("internal", "engine") ||
				(path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.Contains(string(src), "Aggregator") {
			t.Errorf("%s names the Aggregator: production code reduces through engine.Partials", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join("internal", "store", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no source found under internal/store (err %v)", err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Aggregate") {
				t.Errorf("%s declares %s: a store report comes from Store.Partials", name, fn.Name.Name)
			}
		}
	}
}

// TestTheStoreOwnsItsBytes pins where each on-disk format may be known.
// Outside internal/store no production source names the store's files;
// inside it only frame.go (and ship.go, for its own stream format)
// touches checksums or byte order, only frame.go and the metadata files
// touch JSON, and two campaign.json documents are compared in
// campaign.go alone — across internal/store and internal/dispatch.
func TestTheStoreOwnsItsBytes(t *testing.T) {
	storeDir := filepath.Join("internal", "store")
	fileNames := []string{"CampaignMetaFile", "ShardMetaFile", ".vseg", ".vidx", "partials.vagg"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == storeDir || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range fileNames {
			if strings.Contains(string(src), name) {
				t.Errorf("%s names %q: files inside a store directory are internal/store's to read and write", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	mayImport := map[string]map[string]bool{
		"hash/crc32":      {"frame.go": true, "ship.go": true},
		"encoding/binary": {"frame.go": true, "ship.go": true},
		"encoding/json":   {"frame.go": true, "campaign.go": true, "fold.go": true, "sidecar.go": true, "partials.go": true},
	}
	for _, dir := range []string{storeDir, filepath.Join("internal", "dispatch")} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no source found under %s (err %v)", dir, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			base := filepath.Base(name)
			if strings.Contains(string(src), "reflect.DeepEqual") && !(dir == storeDir && base == "campaign.go") {
				t.Errorf("%s calls reflect.DeepEqual: campaign documents are compared by store.CampaignMatches", name)
			}
			if dir != storeDir {
				continue
			}
			file, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if allowed, pinned := mayImport[path]; pinned && !allowed[base] {
					t.Errorf("%s imports %s: the byte formats have one codec each, in frame.go", name, path)
				}
			}
		}
	}
}
