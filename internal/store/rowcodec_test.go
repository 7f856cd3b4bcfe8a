package store

// The binary row payload against the JSON one it replaced. The JSON
// encoder left production code with this change and lives on here as the
// differential oracle: whatever a row became on its way through
// json.Marshal and json.Unmarshal, it must become on its way through
// encodeRow and decodeRow.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"veritas/internal/engine"
	"veritas/internal/player"
)

// encodeRowJSON is the row encoder of every store written before the
// binary payload.
func encodeRowJSON(row engine.SessionRow) ([]byte, error) { return json.Marshal(row) }

// appendFrame appends the frame for (key, payload) to dst, whatever the
// payload holds; production code only ever frames a row it encodes
// itself (appendRowFrame).
func appendFrame(dst []byte, key string, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHdrLen)...)
	dst = append(dst, key...)
	dst = append(dst, payload...)
	sealFrame(dst[start:], len(key))
	return dst
}

// writeJSONStore lays rows out as dir's one segment the way the JSON-era
// store framed them (no sidecar, no snapshot: Open scans it).
func writeJSONStore(t testing.TB, dir string, rows ...engine.SessionRow) {
	t.Helper()
	seg := []byte(segMagic)
	for _, row := range rows {
		payload, err := encodeRowJSON(row)
		if err != nil {
			t.Fatal(err)
		}
		seg = appendFrame(seg, row.ID, payload)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

// campaignRows runs the small real campaign of fleetCorpus (one session
// of each of the four scenarios) and returns its rows.
func campaignRows(t testing.TB) []engine.SessionRow {
	t.Helper()
	corpus, arms := fleetCorpus(t)
	res, err := engine.Run(context.Background(), engine.Config{Workers: 1, Samples: 2, Seed: 1}, corpus, arms)
	if err != nil {
		t.Fatal(err)
	}
	var rows []engine.SessionRow
	for _, s := range res.Sessions {
		rows = append(rows, s.Row())
	}
	if len(rows) != 4 {
		t.Fatalf("campaign produced %d rows, want one per scenario", len(rows))
	}
	return rows
}

// edgeRows are the values a text format and a binary one are most likely
// to disagree on.
func edgeRows() []engine.SessionRow {
	denormal := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	m := player.Metrics{
		AvgSSIM: negZero, RebufRatio: denormal, AvgBitrateMbps: -denormal,
		RebufSeconds: math.MaxFloat64, PlaybackSeconds: 0.1 + 0.2, SessionSeconds: 1e-320,
		NumChunks: math.MaxInt64, QualitySwitches: math.MinInt64,
	}
	return []engine.SessionRow{
		{ID: "zero"},
		{ID: "nil-everything", Index: -1, Scenario: ""},
		{ID: "empty-slices", Arms: []engine.ArmOutcome{}, Predictions: []float64{}},
		{ID: "nil-samples", Arms: []engine.ArmOutcome{{Name: "a"}, {Name: "", Samples: []player.Metrics{}}}},
		{ID: "extremes", Index: math.MaxInt64, Scenario: "s", Simulated: true, SettingA: m,
			Arms: []engine.ArmOutcome{
				{Name: "truth-without-flag", Baseline: m, Samples: []player.Metrics{m, {}, m}, Truth: m},
				{Name: "flag-without-truth", HasTruth: true},
			},
			Predictions: []float64{negZero, denormal, -math.MaxFloat64, 1.0 / 3}},
		{ID: "min-index", Index: math.MinInt64},
		{ID: strings.Repeat("k", maxKeyLen), Scenario: "escapes <>& \"\\ \x00 é"},
	}
}

// TestBinaryRowEqualsJSONRoundTrip is the differential pin.
func TestBinaryRowEqualsJSONRoundTrip(t *testing.T) {
	for _, row := range append(campaignRows(t), edgeRows()...) {
		name := row.ID
		if len(name) > 20 {
			name = name[:20]
		}
		asJSON, err := encodeRowJSON(row)
		if err != nil {
			t.Fatal(err)
		}
		var want engine.SessionRow
		if err := json.Unmarshal(asJSON, &want); err != nil {
			t.Fatal(err)
		}
		payload, err := encodeRow(nil, row)
		if err != nil {
			t.Fatalf("%s: encodeRow: %v", name, err)
		}
		if len(payload) > maxRowLen(row) {
			t.Errorf("%s: payload is %d bytes, maxRowLen says %d", name, len(payload), maxRowLen(row))
		}
		got, err := decodeRow(payload)
		if err != nil {
			t.Fatalf("%s: decodeRow: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: binary round trip\n got %+v\nJSON round trip\nwant %+v", name, got, want)
		}
		// DeepEqual treats -0 and +0 as equal; the encodings do not.
		if again, _ := encodeRowJSON(got); !bytes.Equal(again, asJSON) {
			t.Errorf("%s: the decoded row renders as\n%s\nthe original as\n%s", name, again, asJSON)
		}
		// The JSON payload goes through decodeRow's other arm.
		if viaTag, err := decodeRow(asJSON); err != nil || !reflect.DeepEqual(viaTag, want) {
			t.Errorf("%s: decodeRow of the JSON payload = %+v, %v", name, viaTag, err)
		}
		for _, p := range [][]byte{payload, asJSON} {
			scen, idx, err := peekRow(p)
			if err != nil || scen != want.Scenario || idx != want.Index {
				t.Errorf("%s: peekRow = (%q, %d, %v), want (%q, %d)", name, scen, idx, err, want.Scenario, want.Index)
			}
		}
	}
}

// TestRowCodecCoversEveryField fails when a row type gains a field the
// fixed layout does not carry: that needs a new format tag, not a
// silent drop.
func TestRowCodecCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{{engine.SessionRow{}, 7}, {engine.ArmOutcome{}, 5}, {player.Metrics{}, 8}} {
		if got := reflect.TypeOf(c.v).NumField(); got != c.want {
			t.Errorf("%T has %d fields, the binary row layout encodes %d", c.v, got, c.want)
		}
	}
}

// TestAppendRefusesNonFiniteRows: json.Marshal refused NaN and ±Inf, so
// no store holds one; the binary encoder must keep refusing, and a
// refused row must leave no trace.
func TestAppendRefusesNonFiniteRows(t *testing.T) {
	nanSample := testRow(1, "fcc")
	nanSample.Arms[0].Samples[1].RebufRatio = math.NaN()
	infPrediction := testRow(2, "fcc")
	infPrediction.Predictions[1] = math.Inf(-1)

	dir := t.TempDir()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s, 1, "fcc")
	gen, size := s.Generation(), s.activeLen
	for _, row := range []engine.SessionRow{nanSample, infPrediction} {
		if _, err := encodeRowJSON(row); err == nil {
			t.Fatalf("%s: the JSON oracle accepts the row; the test is void", row.ID)
		}
		if err := s.Append(row); err == nil {
			t.Errorf("%s: Append accepted a non-finite row", row.ID)
		}
		if s.Has(row.ID) || s.Generation() != gen || s.activeLen != size {
			t.Errorf("%s: the refused row moved the store (generation %d → %d, %d → %d bytes)", row.ID, gen, s.Generation(), size, s.activeLen)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, segName(0))); err != nil {
		t.Fatal(err)
	} else if fi.Size() != size {
		t.Errorf("segment is %d bytes on disk, want the %d before the refused appends", fi.Size(), size)
	}
}
