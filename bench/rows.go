package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"sort"

	"veritas"
)

// Seeded input generators. The program under test only ever sees what
// these produce; the same seed gives the same rows and the same
// request schedule (pinned by bench_test.go).

var (
	scenarios = []string{"fcc", "lte", "wifi", "square"}
	matrixABR = []string{"bba", "bola"}
	matrixBuf = []float64{5, 30}
)

// realRows runs a small real campaign (perScenario sessions of every
// scenario through the full what-if matrix) and returns its rows in
// corpus order. The store and serving workloads clone these instead of
// paying for thousands of sessions of inference in set-up.
func realRows(seed int64, perScenario, chunks, workers int) ([]veritas.FleetRow, error) {
	c, err := veritas.NewCampaign(
		veritas.WithScenarios(scenarios...),
		veritas.WithSessions(perScenario),
		veritas.WithChunks(chunks),
		veritas.WithMatrix(matrixABR, matrixBuf),
		veritas.WithSamples(5),
		veritas.WithWorkers(workers),
		veritas.WithSeed(seed),
	)
	if err != nil {
		return nil, err
	}
	var rows []veritas.FleetRow
	stream := c.Results(context.Background())
	for stream.Next() {
		rows = append(rows, stream.Row())
	}
	if err := stream.Err(); err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
	return rows, nil
}

// synthRows clones base (realRows output, equally many rows per
// scenario, scenario-major) into n rows that interleave the scenarios
// (so a corpus growing row by row holds every scenario from the start),
// with fresh IDs and indices and a seeded ±2 % jitter on the quality
// metrics so the aggregates are not n copies of forty numbers.
func synthRows(base []veritas.FleetRow, n int, seed int64) []veritas.FleetRow {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perBase := len(base) / len(scenarios)
	out := make([]veritas.FleetRow, n)
	for g := 0; g < n; g++ {
		si, i := g%len(scenarios), g/len(scenarios)
		src := base[si*perBase+i%perBase]
		row := src
		row.Index = g
		row.ID = fmt.Sprintf("%s-%05d", scenarios[si], i)
		row.Scenario = scenarios[si]
		jit := func(m *veritas.Metrics) {
			f := 1 + 0.04*(rng.Float64()-0.5)
			m.AvgSSIM *= f
			if m.AvgSSIM > 1 {
				m.AvgSSIM = 1
			}
			m.RebufRatio *= f
			m.AvgBitrateMbps *= f
		}
		jit(&row.SettingA)
		row.Arms = make([]veritas.FleetArmOutcome, len(src.Arms))
		for a, arm := range src.Arms {
			arm.Samples = append([]veritas.Metrics(nil), arm.Samples...)
			jit(&arm.Baseline)
			jit(&arm.Truth)
			for k := range arm.Samples {
				jit(&arm.Samples[k])
			}
			row.Arms[a] = arm
		}
		out[g] = row
	}
	return out
}

// armNames lists the what-if arms the matrix produces, in report order.
func armNames() []string {
	var out []string
	for _, a := range matrixABR {
		for _, b := range matrixBuf {
			out = append(out, fmt.Sprintf("%s-%gs", a, b))
		}
	}
	return out
}

// request is one scheduled HTTP read. Class groups requests of like
// cost: the endpoint, apart for reads filtered to one scenario, which
// aggregate a quarter of the corpus.
type request struct {
	Endpoint string
	Class    string
	Path     string
}

// endpoints are the request kinds, in the order results list them.
var endpoints = []string{"report", "percentiles", "cdf", "series", "sessions", "scenarios", "session"}

// readMix is the dashboard fleet's traffic over a finished corpus:
// mostly aggregate reads, a trickle of listings, and session point
// reads (which cmd/loadgen does not issue).
var readMix = map[string]int{"report": 4, "percentiles": 2, "cdf": 1, "series": 1, "sessions": 1, "scenarios": 1, "session": 2}

var (
	reportMetricKeys = []string{"ssim", "rebuf", "bitrate"}
	reportEstimators = []string{"veritas-mid", "veritas-low", "veritas-high", "baseline", "truth"}
)

// schedule draws n requests: the endpoint by mix weight, scenarios,
// arms and session ids Zipf(1.2)-skewed (ids through a seeded shuffle,
// so the hot ids are spread over the scenarios).
func schedule(seed int64, n int, ids []string, mix map[string]int) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x10ad))
	arms := armNames()
	zScen := rand.NewZipf(rng, 1.2, 1, uint64(len(scenarios)-1))
	zArm := rand.NewZipf(rng, 1.2, 1, uint64(len(arms)-1))
	var zID *rand.Zipf
	var hot []int
	if len(ids) > 0 {
		zID = rand.NewZipf(rng, 1.2, 1, uint64(len(ids)-1))
		hot = rng.Perm(len(ids))
	}
	total := 0
	for _, w := range mix {
		total += w
	}
	out := make([]request, n)
	for i := range out {
		pick := rng.Intn(total)
		var ep string
		for _, ep = range endpoints {
			if pick < mix[ep] {
				break
			}
			pick -= mix[ep]
		}
		q := url.Values{}
		class := ep
		// Half the aggregate reads are per-scenario dashboard panels, as
		// in cmd/loadgen.
		if rng.Intn(2) == 0 {
			q.Set("scenario", scenarios[zScen.Uint64()])
			if ep != "scenarios" && ep != "session" {
				class += ".scenario"
			}
		}
		path := ""
		switch ep {
		case "scenarios":
			path = "/v1/scenarios"
		case "sessions":
			path = "/v1/sessions"
		case "session":
			path = "/v1/sessions/" + ids[hot[zID.Uint64()]]
			q = nil
		case "report":
			path = "/v1/report"
		default:
			path = "/v1/report/" + ep
			q.Set("arm", arms[zArm.Uint64()])
			q.Set("metric", reportMetricKeys[rng.Intn(len(reportMetricKeys))])
			q.Set("estimator", reportEstimators[rng.Intn(len(reportEstimators))])
			if ep == "percentiles" && rng.Intn(2) == 0 {
				q.Set("percentiles", "50,95,99")
			}
		}
		if ep != "scenarios" && len(q) > 0 {
			path += "?" + q.Encode()
		}
		out[i] = request{Endpoint: ep, Class: class, Path: path}
	}
	return out
}

func rowIDs(rows []veritas.FleetRow) []string {
	ids := make([]string, len(rows))
	for i, r := range rows {
		ids[i] = r.ID
	}
	return ids
}
