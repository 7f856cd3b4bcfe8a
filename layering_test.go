package veritas_test

// Layering pins, checked from source so they run wherever the tests do:
// the store package stays free of the HTTP tier (store stores, serve
// serves), no deprecated shim or staticcheck suppression creeps back
// into the module, every report is reduced by engine.Partials, and each
// on-disk format is known to one file of internal/store, a campaign's
// settings and their defaults are each written once, the small
// single-session tools stay subcommands of one binary, and every seeded
// generator is mathx.NewRand.

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
// touches checksums or byte order, only frame.go lays a float64 out as
// its bits (the row payload), only frame.go and the metadata files
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
			if base != "frame.go" && (strings.Contains(string(src), "Float64bits") || strings.Contains(string(src), "Float64frombits")) {
				t.Errorf("%s converts floats to or from their bits: the row payload's layout is frame.go's alone", name)
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

// TestTheCampaignIsDefinedOnce pins the one-spec rule. The settings a
// campaign's results depend on are declared, defaulted, validated and
// mapped onto the engine in spec.go; no other production file of the
// facade spells four or more of them out in one composite literal (the
// shape every retired copy had), and the numeric defaults live in one
// constant each — no bare 8 or 5 survives outside a const declaration
// in the files that used to restate them.
func TestTheCampaignIsDefinedOnce(t *testing.T) {
	fset := token.NewFileSet()
	specFile, err := parser.ParseFile(fset, "spec.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	fields := make(map[string]bool)
	ast.Inspect(specFile, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "campaignSpec" {
			return true
		}
		for _, f := range ts.Type.(*ast.StructType).Fields.List {
			for _, name := range f.Names {
				fields[name.Name] = true
			}
		}
		return false
	})
	if len(fields) < 8 {
		t.Fatalf("found %d fields of campaignSpec in spec.go, want at least 8", len(fields))
	}

	facade, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range facade {
		if name == "spec.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			named := 0
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok && fields[key.Name] {
						named++
					}
				}
			}
			if named >= 4 {
				t.Errorf("%s: a composite literal names %d of campaignSpec's fields: embed or pass the spec instead of restating it",
					fset.Position(lit.Pos()), named)
			}
			return true
		})
	}

	restaters := []string{"campaign.go", "session.go", "dispatch.go", "fleet.go"}
	for _, dir := range []string{filepath.Join("internal", "engine"), filepath.Join("internal", "cli")} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no source found under %s (err %v)", dir, err)
		}
		restaters = append(restaters, files...)
	}
	for _, name := range restaters {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if gen, ok := decl.(*ast.GenDecl); ok {
				if gen.Tok == token.CONST {
					continue // where a default is allowed to be a number
				}
				if vs, ok := gen.Specs[0].(*ast.ValueSpec); ok && gen.Tok == token.VAR && vs.Names[0].Name == "squareBands" {
					continue // trace plateaus in Mbps, not defaults
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && (lit.Value == "8" || lit.Value == "5" || lit.Value == "5.0") {
					t.Errorf("%s: bare %s: sessions per scenario, K and the deployed buffer are engine.DefaultSessionsPer, abduction.DefaultSamples and player.DefaultBufferCap",
						fset.Position(lit.Pos()), lit.Value)
				}
				return true
			})
		}
	}
}

// TestOneBinaryForTheSmallTools pins the cmd/ tree: the single-session
// tools (tracegen, sessionrun, abduct, whatif) are subcommands of
// cmd/veritas, each over its own flag.FlagSet, built on the facade with
// only the file codecs taken from internal/player and internal/trace.
func TestOneBinaryForTheSmallTools(t *testing.T) {
	allowed := map[string]bool{
		"benchjson": true, "experiments": true, "fleet": true, "loadgen": true,
		"serve": true, "veritas": true, "veritasd": true,
	}
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && !allowed[d.Name()] {
			t.Errorf("cmd/%s: a single-session tool is a subcommand of cmd/veritas, not a main of its own", d.Name())
		}
	}

	// The flag package's own FlagSet API; everything else it exports
	// works on the process-wide CommandLine set.
	flagSetAPI := map[string]bool{"NewFlagSet": true, "FlagSet": true, "ContinueOnError": true, "ErrHelp": true}
	internalOK := map[string]bool{"veritas/internal/player": true, "veritas/internal/trace": true}
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join("cmd", "veritas", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no source found under cmd/veritas (err %v)", err)
	}
	for _, name := range files {
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "veritas/internal/") && !internalOK[path] {
				t.Errorf("%s imports %s: cmd/veritas goes through the facade (internal/player and internal/trace only for the file codecs)", name, path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" && !flagSetAPI[sel.Sel.Name] {
				t.Errorf("%s: flag.%s: each subcommand parses its own flag.FlagSet, not the global one",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// TestEveryOptionHasACaller fences the facade against knobs only tests
// reach: every exported With* constructor of the root package is called
// from at least one non-test file of the module — bench/, cmd/,
// examples/ and internal/ count, the constructor's own declaration does
// not.
func TestEveryOptionHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	calls := make(map[string]int)
	for _, name := range facade {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "With") {
				calls[fd.Name.Name] = 0
			}
		}
	}
	if len(calls) < 20 {
		t.Fatalf("found %d With* constructors in the root package, want the facade's options", len(calls))
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		root := filepath.Dir(path) == "."
		ast.Inspect(file, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && root && fd.Recv == nil {
				if _, isOption := calls[fd.Name.Name]; isOption {
					return false // a constructor does not call itself into use
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if root {
					name = fun.Name
				}
			case *ast.SelectorExpr:
				if pkg, ok := fun.X.(*ast.Ident); ok && pkg.Name == "veritas" && !root {
					name = fun.Sel.Name
				}
			}
			if _, isOption := calls[name]; isOption {
				calls[name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range calls {
		if n == 0 {
			t.Errorf("veritas.%s has no caller outside tests: delete it, or give it one", name)
		}
	}
}

// TestOneSeededSource: every seeded generator in the module comes from
// mathx.NewRand, whose draws equal math/rand's; no non-test file outside
// internal/mathx seeds a math/rand source of its own. (bench/ is a
// module of its own.)
func TestOneSeededSource(t *testing.T) {
	fset := token.NewFileSet()
	newRands := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == filepath.Join("internal", "mathx") ||
				(path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := map[string]string{} // local import name → import path
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			local := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			names[local] = p
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch {
			case names[pkg.Name] == "math/rand" && sel.Sel.Name == "NewSource":
				t.Errorf("%s: rand.NewSource seeds a second source; use mathx.NewRand", fset.Position(sel.Pos()))
			case names[pkg.Name] == "veritas/internal/mathx" && sel.Sel.Name == "NewRand":
				newRands++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if newRands == 0 {
		t.Fatal("found no mathx.NewRand caller: the walk saw none of the module's generators")
	}
}
