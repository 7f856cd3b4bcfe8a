package veritas

// The spec's own contract, checked by reflection so that a ninth
// setting added to campaignSpec is covered without editing this file —
// and fails here if it was forgotten in the fingerprint, on the wire or
// in validate.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"veritas/internal/abduction"
	"veritas/internal/dispatch"
	"veritas/internal/engine"
	"veritas/internal/player"
)

// fullSpec sets every field of campaignSpec to a valid non-default
// value (the reflection test fails on a field left zero), small enough
// that a worker runs it in milliseconds.
func fullSpec() campaignSpec {
	return campaignSpec{
		Scenarios:   []string{"lte", "wifi"},
		SessionsPer: 1,
		Chunks:      12,
		Samples:     1,
		Seed:        7,
		Buffer:      10,
		ABRs:        []string{"bba", "bola"},
		Buffers:     []float64{5, 30},
	}
}

// otherValue returns a different value of v's kind that is valid
// wherever v was (a number one larger, a list one shorter), and a
// hostile one that no setting accepts unless every value of its type is
// meaningful.
func otherValue(t *testing.T, v reflect.Value) (other, hostile reflect.Value) {
	t.Helper()
	other = reflect.New(v.Type()).Elem()
	hostile = reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		other.SetInt(v.Int() + 1)
		hostile.SetInt(math.MinInt64)
	case reflect.Float64:
		other.SetFloat(v.Float() + 1)
		hostile.SetFloat(-1)
	case reflect.Slice:
		if v.Len() < 2 {
			t.Fatalf("fullSpec needs two elements in every list, have %v", v)
		}
		other.Set(v.Slice(0, v.Len()-1))
		hostile.Set(reflect.MakeSlice(v.Type(), 1, 1))
		switch elem := hostile.Index(0); elem.Kind() {
		case reflect.String:
			elem.SetString("\x00no such name")
		case reflect.Float64:
			elem.SetFloat(-1)
		default:
			t.Fatalf("teach otherValue about []%s", elem.Kind())
		}
	default:
		t.Fatalf("teach otherValue about %s", v.Kind())
	}
	return other, hostile
}

func TestEverySpecFieldIsFingerprintedCarriedAndValidated(t *testing.T) {
	// Settings whose every value is meaningful, so validate has nothing
	// to refuse. Adding a field here is a decision, not a default.
	unconstrained := map[string]bool{"Seed": true}

	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	base := fullSpec()
	if err := base.validate(); err != nil {
		t.Fatal(err)
	}
	baseFP := base.fingerprints()[0]
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		t.Run(name, func(t *testing.T) {
			if reflect.ValueOf(base).Field(i).IsZero() {
				t.Fatalf("fullSpec leaves %s at its zero value", name)
			}
			other, hostile := otherValue(t, reflect.ValueOf(base).Field(i))

			changed := base
			reflect.ValueOf(&changed).Elem().Field(i).Set(other)
			if err := changed.validate(); err != nil {
				t.Fatalf("validate refuses %s = %v: %v", name, other, err)
			}
			fp := changed.fingerprints()[0]
			if string(fp) == string(baseFP) {
				t.Errorf("changing %s leaves campaign.json unchanged: stores would accept rows of a different campaign", name)
			}

			// Through the wire and the real worker: the shard store it
			// leaves behind must carry the changed campaign's fingerprint.
			dir := t.TempDir()
			raw, err := json.Marshal(workerSpec{campaignSpec: changed, NoTelem: true, NoTrace: true, Of: 1, Store: dir})
			if err != nil {
				t.Fatal(err)
			}
			if code := dispatchWorker(string(raw), devnull, os.Stderr); code != 0 {
				t.Fatalf("worker exited %d on spec %s", code, raw)
			}
			onDisk, err := os.ReadFile(filepath.Join(dir, "campaign.json"))
			if err != nil {
				t.Fatal(err)
			}
			if string(onDisk) != string(fp) {
				t.Errorf("%s did not survive the worker spec\nsent %s\nworker fingerprinted %s", name, fp, onDisk)
			}

			// The campaign owns its slices (see clone): writing through
			// the caller's must not reach it.
			if f := reflect.ValueOf(base).Field(i); f.Kind() == reflect.Slice {
				owned := base.clone()
				was := reflect.ValueOf(owned).Field(i).Index(0).Interface()
				f.Index(0).Set(hostile.Index(0))
				if got := reflect.ValueOf(owned).Field(i).Index(0).Interface(); got != was {
					t.Errorf("clone shares %s with its source: %v became %v", name, was, got)
				}
				f.Index(0).Set(reflect.ValueOf(was))
			}

			bad := base
			reflect.ValueOf(&bad).Elem().Field(i).Set(hostile)
			if err := bad.validate(); (err == nil) != unconstrained[name] {
				t.Errorf("validate(%s = %v) = %v; every setting is checked there or listed as unconstrained", name, hostile, err)
			}
			raw, err = json.Marshal(workerSpec{campaignSpec: bad, Of: 1, Store: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if code := dispatchWorker(string(raw), devnull, devnull); (code == 0) != unconstrained[name] {
				t.Errorf("worker exited %d on a lease with %s = %v", code, name, hostile)
			}
		})
	}
}

// TestDispatchWorkerEnvGolden pins the exact VERITAS_DISPATCH_WORKER
// JSON a Dispatch hands its workers, recorded at the commit before the
// settings moved into one campaignSpec. It builds each shard's command
// as Dispatch does — the spec from dispatchPreflight, the process from
// workerSpec.command — without starting it.
func TestDispatchWorkerEnvGolden(t *testing.T) {
	c, err := NewCampaign(
		WithScenarios("lte", "wifi"),
		WithSessions(3),
		WithChunks(40),
		WithSamples(2),
		WithSeed(7),
		WithDeployedBuffer(10),
		WithMatrix([]string{"bba", "bola"}, []float64{5, 30}),
		WithWorkers(2),
		WithoutTracing(),
		WithStore(filepath.Join(t.TempDir(), "c.store")),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, dir, spec, err := c.dispatchPreflight("Dispatch", "Dispatch")
	if err != nil {
		t.Fatal(err)
	}
	const settings = `{"scenarios":["lte","wifi"],"sessions":3,"chunks":40,"samples":2,"seed":7,"buffer":10,"abrs":["bba","bola"],"buffers":[5,30],"workers":2,"notracing":true,`
	for shard, want := range []string{
		settings + `"shard":0,"of":2,"store":"DIR/shard-0.store"}`,
		settings + `"shard":1,"of":2,"store":"DIR/shard-1.store"}`,
	} {
		cmd, err := spec.command("worker", nil, shard, 2, dispatch.ShardDir(dir, shard))
		if err != nil {
			t.Fatal(err)
		}
		if len(cmd.Env) != 1 {
			t.Fatalf("worker environment %q, want the spec alone", cmd.Env)
		}
		if got := strings.ReplaceAll(cmd.Env[0], dir, "DIR"); got != dispatchWorkerEnv+"="+want {
			t.Errorf("worker environment moved\nwant %s=%s\ngot  %s", dispatchWorkerEnv, want, got)
		}
	}
}

// TestSpecRefusesNonFiniteBuffers: NaN passes "b <= 0" and +Inf passes
// "b > 0"; a spec carrying either used to run a whole session before the
// player (or the JSON encoder) refused it.
func TestSpecRefusesNonFiniteBuffers(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*campaignSpec)
		want string
	}{
		{"NaN matrix buffer", func(s *campaignSpec) { s.Buffers = []float64{5, math.NaN()} }, "matrix buffer NaN"},
		{"+Inf matrix buffer", func(s *campaignSpec) { s.Buffers = []float64{math.Inf(1)} }, "matrix buffer +Inf"},
		{"-Inf matrix buffer", func(s *campaignSpec) { s.Buffers = []float64{math.Inf(-1)} }, "matrix buffer -Inf"},
		{"NaN deployed buffer", func(s *campaignSpec) { s.Buffer = math.NaN() }, "deployed buffer NaN"},
		{"+Inf deployed buffer", func(s *campaignSpec) { s.Buffer = math.Inf(1) }, "deployed buffer +Inf"},
	} {
		s := fullSpec()
		tc.mut(&s)
		if err := s.validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestSpecDefaultsAreTheEngines ties the defaults a fingerprint records
// to the ones the engine applies: change either alone and this fails,
// instead of stores vouching for a campaign they did not run.
func TestSpecDefaultsAreTheEngines(t *testing.T) {
	d := campaignSpec{}.withDefaults()
	ccfg := engine.CorpusConfig{NumChunks: 10}
	corpus, err := engine.BuildCorpus(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(corpus) / len(engine.Scenarios()); got != d.SessionsPer {
		t.Errorf("BuildCorpus draws %d sessions per scenario, the spec records %d", got, d.SessionsPer)
	}
	if got := corpus[0].BufferCap; got != d.Buffer {
		t.Errorf("BuildCorpus deploys a %g s buffer, the spec records %g", got, d.Buffer)
	}
	arms, err := engine.BuildMatrix(ccfg, []string{"bba"}, []float64{30})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(context.Background(), engine.Config{Workers: 1}, corpus[:1], arms)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Sessions[0].Arms[0].Samples); got != d.Samples {
		t.Errorf("engine.Run draws K = %d samples, the spec records %d", got, d.Samples)
	}

	// The package doc's defaults table is the one place the values are
	// written for readers; keep it true.
	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{
		fmt.Sprintf("engine.DefaultSessionsPer  %d", engine.DefaultSessionsPer),
		fmt.Sprintf("abduction.DefaultSamples   %d", abduction.DefaultSamples),
		fmt.Sprintf("player.DefaultBufferCap    %g", player.DefaultBufferCap),
	} {
		if !strings.Contains(string(doc), row) {
			t.Errorf("doc.go's defaults table lacks the row %q", row)
		}
	}
}
